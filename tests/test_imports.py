"""Every ``repro`` module imports on its own, whichever is imported first.

An import cycle can hide behind import order: ``harness/prefix.py`` →
``repro.fault.digest`` → ``fault/__init__`` → ``fault/runner.py`` →
``harness.prefix`` loaded only because another module happened to import
``repro.fault.digest`` before it.  One child interpreter imports each module
from a cold ``repro`` (every ``repro.*`` entry dropped from ``sys.modules``).

Every def under ``src/repro`` also has a caller under ``src/repro``, or a
reason in ``_NO_SRC_CALLER`` why it stays (an AST walk; see
:func:`_caller_guard`).
"""

import ast
import os
import pathlib
import subprocess
import sys
import time

_SNIPPET = """
import importlib, pkgutil, sys
import repro

names = sorted(m.name for m in pkgutil.walk_packages(repro.__path__, "repro."))
for name in ["repro"] + [n for n in names if n != "repro.__main__"]:
    for loaded in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as exc:
        print(f"{name}: {type(exc).__name__}: {exc}")
"""


def test_every_module_imports_first():
    src_dir = pathlib.Path(__file__).parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _SNIPPET],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src_dir)),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "", proc.stdout


# ------------------------------------------------- every def has a src caller
#: Defs under ``src/repro`` that no code under ``src/repro`` calls, each with
#: the reason it stays.  A name leaves this table when it gets a model
#: caller or is deleted; the guard below fails on an entry that did either.
_NO_SRC_CALLER = {
    # probes of real state: a test reads them, nothing in the model needs to
    "sim.core.Environment.peek_us": "tests/test_sim_core.py::test_peek_us_reports_next_event_time reads the next due tick",
    "core.logpool.LogPool.n_units": "tests/test_logpool.py::test_rotation_seals_full_unit counts a pool's resident units",
    "core.logpool.LogPool.backlog": "tests/test_log_debt_ledger.py recounts the log-debt ledger by brute force against it",
    "core.index.TwoLevelIndex.total_extents": "tests/test_index.py::test_totals_and_clear counts the index's extents",
    "core.index.TwoLevelIndex.total_records_absorbed": "tests/test_index.py::test_totals_and_clear counts the records merged in",
    "core.index.TwoLevelIndex.live_bytes": "tests/test_index.py::test_totals_and_clear reads the index's live bytes",
    "core.intervals.ExtentMap.reduction_ratio": "tests/test_intervals.py::test_reduction_ratio_counts_merges reads the merge ratio",
    "core.recycler.RecyclePlanner.reduction_ratio": "tests/test_recycler.py::test_reduction_ratio reads the planner's merge ratio",
    "storage.base.DeviceCounters.total_ops": "tests/test_invariants_extra.py::test_device_counters_conserve sums a device's I/Os",
    "storage.base.StorageDevice.estimate": "tests/test_storage.py::test_ssd_random_slower_than_sequential prices an I/O without queueing it",
    "cluster.scrub.ScrubReport.clean": "tests/test_scrub.py::test_clean_cluster_scrubs_clean reads a scrub's verdict",
    "traces.stats.trace_statistics": "tests/test_traces.py::test_alicloud_statistics_match_published checks a trace against the paper",
    # bound by perfbench (not edited outside a benchmark change) or the user
    "net.fabric.NetworkFabric.transfer_chain": "perfbench binds it until ROADMAP item 5.1",
    "net.fabric.NetworkFabric.transfer_many": "perfbench binds it until ROADMAP item 5.1",
    "net.fabric.NetworkFabric.rpc": "perfbench binds it until ROADMAP item 5.1",
    "storage.base.StorageDevice.submit_chain": "perfbench binds it until ROADMAP item 5.1",
    "storage.base.StorageDevice.submit_many": "perfbench binds it until ROADMAP item 5.1",
    "storage.blockstore.BlockStore.create": "perfbench/probes.py builds its write-probe block with it",
    "ec.incremental.data_delta": "perfbench/probes.py times the Eq. (2) delta with it",
    "harness.prefix.clear_prefix_caches": "perfbench empties the prefix memos with it before each timed repeat",
    "common.units.fmt_bytes": "examples/failure_recovery.py prints sizes with it",
    "common.units.fmt_time": "examples/quickstart.py and examples/degraded_service.py print times with it",
    "traces.loader.load_trace": "the user's path for the real Ali / Ten / MSR traces, which are not shipped",
}


def _module_sources(src_dir: pathlib.Path) -> dict[str, str]:
    """``{"cluster.ecfs": source, ...}`` for every module under ``repro``."""
    root = src_dir / "repro"
    out = {}
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path.read_text()
    return out


def _defs(module: str, tree: ast.Module):
    """(qualified name, name, first line, last line) of every module-level
    function and class and every method, dunders left out."""
    stack = [(tree.body, module + ".")]
    while stack:
        body, prefix = stack.pop()
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield prefix + node.name, node.name, node.lineno, node.end_lineno
                if isinstance(node, ast.ClassDef):
                    stack.append((node.body, f"{prefix}{node.name}."))


def _references(tree: ast.Module):
    """(name, line) of every name a module loads: a bare name, an attribute,
    or a string naming one (``getattr``).  An import is no reference, so a
    package's re-export calls nothing; nor is a string in ``__all__``."""
    exported = set()
    for node in tree.body:
        targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            exported.update(id(n) for n in ast.walk(node))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in exported
        ):
            yield node.value, node.lineno


def _caller_guard(sources: dict[str, str], allowlist: dict[str, str]) -> list[str]:
    """Every failure of the rule, one line each: a def that nothing outside
    its own body names and the allowlist does not excuse, or an allowlist
    entry that is stale (its name is gone, or it has a caller now)."""
    trees = {module: ast.parse(text, module) for module, text in sources.items()}
    seen: dict[str, list[tuple[str, int]]] = {}
    for module, tree in trees.items():
        for name, line in _references(tree):
            seen.setdefault(name, []).append((module, line))
    defined, uncalled = set(), set()
    for module, tree in trees.items():
        for qualname, name, first, last in _defs(module, tree):
            defined.add(qualname)
            if all(m == module and first <= line <= last for m, line in seen.get(name, ())):
                uncalled.add(qualname)
    problems = [f"{q}: no caller under src/repro" for q in sorted(uncalled - set(allowlist))]
    for qualname in sorted(allowlist):
        if qualname not in defined:
            problems.append(f"{qualname}: allowlisted but no longer defined")
        elif qualname not in uncalled:
            problems.append(f"{qualname}: allowlisted but has a caller now")
    return problems


def test_every_src_def_has_a_src_caller():
    """No function, class or method under src/repro exists only for tests,
    examples or perfbench unless ``_NO_SRC_CALLER`` says why.  A failure is
    either a new def nothing in the model calls (delete it, or allowlist it
    with a reason) or a stale allowlist entry (remove it)."""
    sources = _module_sources(pathlib.Path(__file__).parent.parent / "src")
    assert _caller_guard(sources, _NO_SRC_CALLER) == []
    assert all(reason and "\n" not in reason for reason in _NO_SRC_CALLER.values())


def test_caller_guard_flags_an_uncalled_method():
    sources = {
        "pkg.mod": (
            "class Store:\n"
            "    def __init__(self):\n"
            "        self.items = []\n"
            "    def put(self, item):\n"
            "        self.items.append(item)\n"
            "    def drop(self):\n"
            "        self.drop()  # calls only itself\n"
            "def fill(store):\n"
            "    store.put(1)\n"
            "HANDLERS = [fill, Store]\n"
        )
    }
    assert _caller_guard(sources, {}) == ["pkg.mod.Store.drop: no caller under src/repro"]


def test_caller_guard_counts_a_getattr_string_as_a_caller():
    sources = {
        "pkg.mod": (
            "class Series:\n"
            "    def updates(self):\n"
            "        return []\n"
            "def pick(series, kind='updates'):\n"
            "    return getattr(series, kind)()\n"
            "pick(Series())\n"
        )
    }
    assert _caller_guard(sources, {}) == []


def test_caller_guard_runs_under_one_second():
    sources = _module_sources(pathlib.Path(__file__).parent.parent / "src")
    start = time.process_time()
    _caller_guard(sources, _NO_SRC_CALLER)
    assert time.process_time() - start < 1.0


def test_caller_guard_flags_stale_allowlist_entries():
    sources = {"pkg.mod": "def used():\n    pass\nused()\n"}
    allowlist = {"pkg.mod.used": "had no caller once", "pkg.mod.gone": "was deleted"}
    assert _caller_guard(sources, allowlist) == [
        "pkg.mod.gone: allowlisted but no longer defined",
        "pkg.mod.used: allowlisted but has a caller now",
    ]


def test_caller_guard_counts_no_export_or_reexport_as_a_caller():
    sources = {
        "pkg": 'from pkg.mod import helper\n__all__ = ["helper"]\n',
        "pkg.mod": '__all__ = ["helper"]\ndef helper():\n    pass\n',
    }
    assert _caller_guard(sources, {}) == ["pkg.mod.helper: no caller under src/repro"]
    sources["pkg.user"] = "from pkg import helper\nhelper()\n"
    assert _caller_guard(sources, {}) == []
