"""Every ``repro`` module imports on its own, whichever is imported first.

An import cycle can hide behind import order: a module-level ``from
repro.fault.digest import ...`` in ``harness/runner.py`` would run
``fault/__init__`` → ``fault/runner.py`` → ``from repro.harness.runner
import resolve_trace`` while ``harness.runner`` is half built, and would
load only because another module happened to import ``repro.fault`` first.
One child interpreter imports each module from a cold ``repro`` (every
``repro.*`` entry dropped from ``sys.modules``).

Every def under ``src/repro`` also has a caller under ``src/repro``, or a
reason in ``_NO_SRC_CALLER`` why it stays, and every module an importer, or
a reason in ``_NO_SRC_IMPORTER`` (AST walks; see :func:`_caller_guard` and
:func:`_importer_guard`).
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
    "gf.field.gf_pow": "tests/test_gf.py::test_pow_matches_repeated_mul checks the exp/log tables against repeated multiplication",
    "gf.matrix.gf_mat_rank": "tests/test_ec.py and tests/test_gf.py check that a GF(256) matrix is invertible with it",
    "traces.stats.trace_statistics": "tests/test_traces.py::test_alicloud_statistics_match_published checks a trace against the paper",
    # bound by perfbench (not edited outside a benchmark change) or the user
    "net.fabric.NetworkFabric.transfer_chain": "perfbench binds it until ROADMAP item 5.1",
    "net.fabric.NetworkFabric.transfer_many": "perfbench binds it until ROADMAP item 5.1",
    "net.fabric.NetworkFabric.rpc": "perfbench binds it until ROADMAP item 5.1",
    "storage.base.StorageDevice.submit_chain": "perfbench binds it until ROADMAP item 5.1",
    "storage.base.StorageDevice.submit_many": "perfbench binds it until ROADMAP item 5.1",
    "storage.blockstore.BlockStore.create": "perfbench/probes.py builds its write-probe block with it",
    "ec.incremental.data_delta": "perfbench/probes.py times the Eq. (2) delta with it",
    "harness.prefix.clear_prefix_caches": "perfbench/driver.py calls the no-op before each timed repeat until ROADMAP item 5.2",
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


# --------------------------------------------- every module has a src importer
#: Modules under ``src/repro`` that no module under ``src/repro`` imports,
#: each with the reason it stays; stale entries fail like ``_NO_SRC_CALLER``'s.
_NO_SRC_IMPORTER = {
    "__main__": "python -m repro runs it",
    "harness.prefix": "perfbench/driver.py imports clear_prefix_caches from it until ROADMAP item 5.2",
    "traces.loader": "the user's path for the real Ali / Ten / MSR traces, which are not shipped",
    "traces.stats": "tests/test_traces.py::test_alicloud_statistics_match_published checks a trace against the paper",
}


def _imports(tree: ast.Module, modules):
    """(module, names) of every absolute ``repro`` import anywhere in a tree,
    lazy ones included: the names a ``from`` import takes, or None for a
    whole module (``import repro.x.y``, or a submodule named in a ``from``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro."):
                    yield alias.name.removeprefix("repro."), None
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            if node.module == "repro" or node.module.startswith("repro."):
                target = node.module.removeprefix("repro").removeprefix(".")
                names = {alias.name for alias in node.names}
                yield target, names
                for name in names:
                    if f"{target}.{name}".lstrip(".") in modules:
                        yield f"{target}.{name}".lstrip("."), None


def _importer_guard(sources: dict[str, str], allowlist: dict[str, str]) -> list[str]:
    """Every failure of the rule, one line each: a module (no package) that
    no other module imports and the allowlist does not excuse, or a stale
    allowlist entry.  A package ``__init__`` importing its own submodule
    counts only if one of the names it takes is used: loaded in the
    ``__init__`` itself, or imported from the package by another module.
    So an alias module that only its package re-exports has no importer."""
    trees = {module: ast.parse(text, module) for module, text in sources.items()}
    packages = {m for m in sources if any(o.startswith(m + ".") for o in sources)}
    packages.add("")
    edges = [(m, t, n) for m, tree in trees.items() for t, n in _imports(tree, sources)]
    used = {p: {name for name, _ in _references(trees[p])} for p in packages if p in trees}
    for importer, target, names in edges:
        if target in packages and importer != target:
            used.setdefault(target, set()).update(names or {"*"})
    imported = set()
    for importer, target, names in edges:
        if importer in packages and target.startswith(importer + "." if importer else ""):
            taken = names or {target.rpartition(".")[2]}
            if not taken & used.get(importer, set()) and "*" not in used.get(importer, ()):
                continue
        if importer != target:
            imported.add(target)
    orphans = set(sources) - packages - imported
    problems = [f"{m}: no importer under src/repro" for m in sorted(orphans - set(allowlist))]
    for module in sorted(allowlist):
        if module not in sources or module in packages:
            problems.append(f"{module}: allowlisted but not a module")
        elif module not in orphans:
            problems.append(f"{module}: allowlisted but has an importer now")
    return problems


def test_every_src_module_has_a_src_importer():
    """No module under src/repro is imported only by tests, examples or
    perfbench (or by nothing) unless ``_NO_SRC_IMPORTER`` says why."""
    sources = _module_sources(pathlib.Path(__file__).parent.parent / "src")
    assert _importer_guard(sources, _NO_SRC_IMPORTER) == []
    assert all(reason and "\n" not in reason for reason in _NO_SRC_IMPORTER.values())


def test_importer_guard_flags_a_restored_alias_module():
    """The old ``cluster/layout.py`` alias shim defined nothing, so the
    caller guard cannot see it; its package re-exported it and nothing took
    the name."""
    sources = _module_sources(pathlib.Path(__file__).parent.parent / "src")
    sources["cluster.layout"] = (
        "from repro.placement.rotation import RotationPolicy as Placement\n"
        '__all__ = ["Placement"]\n'
    )
    sources["cluster"] += "from repro.cluster.layout import Placement\n"
    assert _importer_guard(sources, _NO_SRC_IMPORTER) == [
        "cluster.layout: no importer under src/repro"
    ]
    sources["cluster.mds"] += "from repro.cluster import Placement\n"
    assert _importer_guard(sources, _NO_SRC_IMPORTER) == []


def test_importer_guard_counts_a_package_that_uses_what_it_imports():
    sources = {
        "pkg": (
            "from repro.pkg.fast import Fast\n"
            "from repro.pkg.alias import Old\n"
            "METHODS = {'fast': Fast}\n"
        ),
        "pkg.fast": "class Fast:\n    pass\n",
        "pkg.alias": "from repro.pkg.fast import Fast as Old\n",
        "pkg.lazy": "def load():\n    import repro.pkg.fast\n",
    }
    assert _importer_guard(sources, {}) == [
        "pkg.alias: no importer under src/repro",
        "pkg.lazy: no importer under src/repro",
    ]
    allowlist = {"pkg.lazy": "a plug-in", "pkg.fast": "had no importer once", "pkg": "a package"}
    assert _importer_guard(sources, allowlist) == [
        "pkg.alias: no importer under src/repro",
        "pkg: allowlisted but not a module",
        "pkg.fast: allowlisted but has an importer now",
    ]


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
    _importer_guard(sources, _NO_SRC_IMPORTER)
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
