"""Every ``repro`` module imports on its own, whichever is imported first.

An import cycle can hide behind import order: a module-level ``from
repro.fault.digest import ...`` in ``harness/runner.py`` would run
``fault/__init__`` → ``fault/runner.py`` → ``from repro.harness.runner
import resolve_trace`` while ``harness.runner`` is half built, and would
load only because another module happened to import ``repro.fault`` first.
:func:`_import_order_guard` replays Python's import of every module as the
first one on the AST (module-level imports only, ``TYPE_CHECKING`` blocks
left out), and one child interpreter imports each top-level package from a
cold ``repro`` (every ``repro.*`` entry dropped from ``sys.modules``).

Every def under ``src/repro`` also has a caller under ``src/repro``, or a
reason in ``_NO_SRC_CALLER`` why it stays, every module an importer, or a
reason in ``_NO_SRC_IMPORTER``, and every knob a setter, or a reason in
``_NO_SRC_SETTER`` (AST walks; see :func:`_caller_guard`,
:func:`_importer_guard` and :func:`_setter_guard`).
"""

import ast
import functools
import os
import pathlib
import subprocess
import sys
import time

_SNIPPET = """
import importlib, pkgutil, sys
import repro

names = sorted(m.name for m in pkgutil.iter_modules(repro.__path__, "repro."))
for name in ["repro"] + [n for n in names if n != "repro.__main__"]:
    for loaded in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as exc:
        print(f"{name}: {type(exc).__name__}: {exc}")
"""


def _import_steps(body):
    """One ``(imports, bound names)`` pair per module-level statement, in
    execution order; ``imports`` lists ``(module, names or None)`` for every
    ``repro`` import the statement runs.  ``if`` / ``try`` / ``with`` bodies
    run at import time (all branches counted); ``if TYPE_CHECKING`` does not,
    nor does a def or class body."""
    for node in body:
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            yield from _import_steps(node.orelse)
            continue
        if isinstance(node, (ast.If, ast.Try, ast.With)):
            blocks = [getattr(node, f, []) for f in ("body", "orelse", "finalbody")]
            for block in blocks + [h.body for h in getattr(node, "handlers", [])]:
                yield from _import_steps(block)
            continue
        imports, bound = [], set()
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.add(alias.asname or alias.name.partition(".")[0])
                if alias.name.startswith("repro."):
                    imports.append((alias.name.removeprefix("repro."), None))
        elif isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
            if node.module == "repro" or (node.module or "").startswith("repro."):
                target = node.module.removeprefix("repro").removeprefix(".")
                imports.append((target, [alias.name for alias in node.names]))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        else:
            targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
            for target in filter(None, targets):
                bound.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        yield imports, bound


def _import_order_guard(sources: dict[str, str]) -> list[str]:
    """Every ``from X import name`` that some first-import order reaches
    while ``X`` is half built and has not bound ``name`` yet, one line each.

    For each module as the first import it replays Python's algorithm:
    parent packages first, a module's statements in order, a submodule named
    in a ``from`` import loaded, any other name looked up in the (maybe half
    built) module."""
    steps = {
        module: list(_import_steps(_tree(module, text).body))
        for module, text in sources.items()
    }
    problems = set()

    def dotted(module):
        return f"repro.{module}" if module else "repro"

    def parents(module):
        parts = module.split(".") if module else []
        return [".".join(parts[:i]) for i in range(len(parts))]

    for entry in sorted(sources):
        position: dict[str, int] = {}  # module -> statement running; -1: done

        def load(module):
            if module in position or module not in steps:
                return
            for parent in parents(module):
                load(parent)
            if module in position:
                return
            for i, (imports, _bound) in enumerate(steps[module]):
                position[module] = i
                for target, names in imports:
                    load(target)
                    for name in names or ():
                        sub = f"{target}.{name}" if target else name
                        if sub in steps:
                            load(sub)
                        elif not bound(target, name):
                            problems.add(
                                f"{dotted(module)}: cannot import {name} from half-built "
                                f"{dotted(target)} (first import {dotted(entry)})"
                            )
            position[module] = -1

        def bound(module, name):
            at = position.get(module, -1)
            return at == -1 or any(name in b for _imports, b in steps[module][:at])

        load(entry)
    return sorted(problems)


def test_every_module_imports_first():
    sources = _module_sources(pathlib.Path(__file__).parent.parent / "src")
    assert _import_order_guard(sources) == []


def test_every_top_level_package_imports_cold():
    """The import-order walk sees only what the AST says; a real import of
    each top-level package from a cold ``repro`` runs what it cannot."""
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


def test_import_order_guard_flags_a_half_built_import():
    sources = {
        "": "",
        "a": "from repro.a.one import ONE\n",
        "a.one": "from repro.b.two import TWO\nONE = 1\n",
        "b": "",
        "b.two": "from repro.a.one import ONE\nTWO = 2\n",
        "c": "from repro.c.x import X\nfrom repro.c.y import Y\n",
        "c.x": "X = 1\n",
        "c.y": "from repro.c import X\nY = X\n",
    }
    assert _import_order_guard(sources) == [
        "repro.a.one: cannot import TWO from half-built repro.b.two (first import repro.b.two)",
        "repro.b.two: cannot import ONE from half-built repro.a.one (first import repro.a)",
        "repro.b.two: cannot import ONE from half-built repro.a.one (first import repro.a.one)",
    ]


# ------------------------------------------------- every def has a src caller
#: Defs under ``src/repro`` that no code under ``src/repro`` calls, each with
#: the reason it stays.  A name leaves this table when it gets a model
#: caller or is deleted; the guard below fails on an entry that did either.
_NO_SRC_CALLER = {
    # probes of real state: a test reads them, nothing in the model needs to
    "sim.core.Environment.peek_us": "tests/test_sim_core.py::test_peek_us_reports_next_event_time reads the next due tick",
    "core.logpool.LogPool.n_units": "tests/test_logpool.py::test_rotation_seals_full_unit counts a pool's resident units",
    "core.logpool.LogPool.backlog": "tests/test_log_debt_ledger.py recounts the log-debt ledger by brute force against it",
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


@functools.lru_cache(maxsize=256)  # every module of src/repro, and some edits
def _tree(module: str, text: str) -> ast.Module:
    """One parse per module text, shared by the guards (none mutates it)."""
    return ast.parse(text, module)


@functools.lru_cache(maxsize=256)
def _walk(tree: ast.Module) -> list[ast.AST]:
    """Every node of a tree, walked once and shared by the guards."""
    return list(ast.walk(tree))


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
    for node in _walk(tree):
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
    trees = {module: _tree(module, text) for module, text in sources.items()}
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
    for node in _walk(tree):
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
    trees = {module: _tree(module, text) for module, text in sources.items()}
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


def test_the_three_guards_run_under_one_second():
    """Caller, importer and setter guard together, from a cold parse."""
    sources = _module_sources(pathlib.Path(__file__).parent.parent / "src")
    _tree.cache_clear()
    _walk.cache_clear()
    start = time.process_time()
    _caller_guard(sources, _NO_SRC_CALLER)
    _importer_guard(sources, _NO_SRC_IMPORTER)
    _setter_guard(sources, _NO_SRC_SETTER)
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


# --------------------------------------------- every knob has a src setter
#: Knobs under ``src/repro`` that no code under ``src/repro`` sets, each with
#: the reason it stays a knob rather than a constant.  A key names one knob
#: (``module.Class.name`` for a constructor's, ``module.func.name`` or
#: ``module.Class.method.name`` for a function's) or a class or function,
#: which covers every unset knob of its constructor or signature.  An entry
#: whose knob gets a src setter or is gone fails as stale.
_NO_SRC_SETTER = {
    # calibration: the device, network and CPU models ROADMAP item 7 sweeps
    "storage.ssd.SSDParams": "calibration of the SSD timing model, swept by ROADMAP item 7",
    "storage.hdd.HDDParams": "calibration of the HDD timing model, swept by ROADMAP item 7",
    "net.fabric.NetParams.per_message_overhead": "calibration of the network model, swept by ROADMAP item 7",
    "cluster.config.CPUCosts": "calibration of the CPU cost model, swept by ROADMAP item 7",
    "storage.wear.FlashWearModel": "calibration of the NAND wear model, swept by ROADMAP item 7",
    "cluster.config.ClusterConfig.header_bytes": "calibration of the control-message size, swept by ROADMAP item 7",
    "cluster.config.ClusterConfig.ack_bytes": "calibration of the ack size, swept by ROADMAP item 7",
    "cluster.ecfs.ECFS.ssd_params": "the entry for SSD calibration, swept by ROADMAP item 7",
    "cluster.ecfs.ECFS.hdd_params": "the entry for HDD calibration, swept by ROADMAP item 7",
    # perfbench-bound: perfbench is edited only by a benchmark change
    "core.logpool.LogPool.min_units": "perfbench/probes.py builds its append-probe pool with it until ROADMAP item 5.2",
    "core.recycler.RecyclePlanner.n_lanes": "perfbench/probes.py builds its plan-probe planner with it until ROADMAP item 5.2",
    "harness.runner.ExperimentConfig.verify": "perfbench/driver.py's verified workload sets it until ROADMAP item 5.2",
    "harness.runner.ExperimentConfig.duration": "perfbench/driver.py reads it and perfbench/test_perfbench.py sets it until ROADMAP item 5.2",
    # fault vocabulary: the generator of ROADMAP item 1 draws every field
    "fault.events.OSDDecommission.retire": "fault vocabulary the schedule generator of ROADMAP item 1 draws",
    "fault.events.OSDDecommission.parallel": "fault vocabulary the schedule generator of ROADMAP item 1 draws",
    "fault.events.CrashOSD.recover": "fault vocabulary the schedule generator of ROADMAP item 1 draws",
    "fault.events.DegradeNIC.duration": "fault vocabulary the schedule generator of ROADMAP item 1 draws",
    "fault.events.StickDisk.duration": "fault vocabulary the schedule generator of ROADMAP item 1 draws",
    "fault.events.OSDJoin": "fault vocabulary the schedule generator of ROADMAP item 1 draws",
    "fault.events.WeightChange": "fault vocabulary the schedule generator of ROADMAP item 1 draws",
    # reached by a route the AST cannot follow
    "update.tsue.TSUE.options": "reached through ECFS(method_options={'options': ...}), e.g. harness/fig7.py",
    "cluster.heartbeat.HeartbeatService.on_failure": "examples/degraded_service.py rebuilds a detected node through it",
    # test seams: a test sets another value to reach a case the model runs rarely
    "frontend.dispatcher.FrontEnd.hedge_delay": "tests/test_frontend.py::test_hedged_read_dodges_partition hedges sooner; five tests turn it off",
    "frontend.dispatcher.FrontEnd.max_inflight": "tests/test_frontend.py::test_frontend_strict_priority_order serializes dispatch",
    "frontend.admission.AdmissionConfig.rate": "tests/test_frontend.py::test_frontend_sheds_over_rate sheds at a low rate",
    "frontend.admission.AdmissionConfig.burst": "tests/test_frontend.py::test_frontend_sheds_over_rate sheds past a small burst",
    "placement.rebalancer.Rebalancer.ship_threshold": "tests/test_migration_durability.py::test_ship_path_replays_live_log_content_at_destination forces the ship path",
    "cluster.scrub.Scrubber.stripes_per_pass": "tests/test_scrub.py::test_scrubber_bounded_pass scrubs two stripes per pass",
    "net.fabric.NetworkFabric.fault_seed": "tests/test_fault_injection.py::test_lossy_link_retransmits_deterministically draws link loss per seed",
    "harness.runner.ExperimentConfig.block_size": "tests/test_golden_digests.py::test_golden_digest pins 64 KiB-block rows",
    # bound by perfbench or on a user path
    "storage.blockstore.BlockStore.create.data": "perfbench/probes.py builds its write-probe block from bytes until ROADMAP item 5.2",
    "traces.loader.load_trace.max_records": "the user's path for the real Ali / Ten / MSR traces, which are not shipped",
    "traces.loader.load_msr_csv.max_records": "the user's path for the real MSR traces; tests/test_loader.py::test_max_records_cap caps one",
    "traces.loader.load_alibaba_csv.max_records": "the user's path for the real Ali-Cloud traces, which are not shipped",
    "traces.loader.load_tencent_csv.max_records": "the user's path for the real Ten-Cloud traces, which are not shipped",
    # kept for a planned caller
    "placement.topology.Topology.flat.failure_domain": "rack-domain placement, kept for the rack-loss adversary of ROADMAP item 1",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        func = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(func, "id", getattr(func, "attr", None)) == "dataclass":
            return True
    return False


def _field_kind(stmt) -> str | None:
    """``"knob"``, ``"field"`` (an init parameter with no plain default) or
    None (no init parameter) for one statement of a dataclass body."""
    if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name):
        return None
    if "ClassVar" in ast.unparse(stmt.annotation):
        return None
    value = stmt.value
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        keywords = {k.arg: k.value for k in value.keywords}
        init = keywords.get("init")
        if isinstance(init, ast.Constant) and init.value is False:
            return None
        return "knob" if "default" in keywords else "field"
    return "field" if value is None else "knob"


def _classes(module: str, tree: ast.Module):
    """(qualified name, class node) of every class, nested ones included."""
    stack = [(tree.body, module + ".")]
    while stack:
        body, prefix = stack.pop()
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield prefix + node.name, node
                stack.append((node.body, f"{prefix}{node.name}."))


def _init(node: ast.ClassDef):
    for stmt in node.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            return stmt
    return None


def _defaulted(args: ast.arguments) -> list[str]:
    """Names of a signature's parameters that carry a default."""
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    return names + [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def _functions(module: str, tree: ast.Module):
    """(qualified name, def node, whether a call binds its first parameter)
    of every function and method, nested ones included."""

    def visit(body, prefix, in_class):
        for child in body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                decorators = {getattr(d, "id", None) for d in child.decorator_list}
                yield prefix + child.name, child, in_class and "staticmethod" not in decorators
                yield from visit(child.body, f"{prefix}{child.name}.", False)
            elif isinstance(child, ast.ClassDef):
                yield from visit(child.body, f"{prefix}{child.name}.", True)
            else:  # the blocks of a compound statement, an except or a case
                for field in ("body", "orelse", "finalbody", "handlers", "cases"):
                    yield from visit(getattr(child, field, ()), prefix, in_class)

    yield from visit(tree.body, module + ".", False)


def _knobs(node: ast.ClassDef):
    """Names of a class's knobs: its defaulted ``__init__`` parameters, or a
    dataclass's defaulted fields."""
    init = _init(node)
    if init is not None:
        return _defaulted(init.args)
    if _is_dataclass(node):
        return [s.target.id for s in node.body if _field_kind(s) == "knob"]
    return []


def _setter_guard(sources: dict[str, str], allowlist: dict[str, str]) -> list[str]:
    """Every failure of the rule, one line each: a knob that no src code
    sets and the allowlist does not excuse, or a stale allowlist entry.

    A knob is a defaulted parameter of a function or method (``module.func.p``,
    ``module.Class.method.p``), or a defaulted ``__init__`` parameter or
    dataclass field of a class (``module.Class.p``); a ``_private`` name is
    none.  A call sets it when it passes it by keyword, by position, through
    ``*`` (every position from there on) or through ``**`` (a module-level
    ``dict(...)`` its keys, anything else every parameter).  Calls match by
    bare name: a function or method of that name, or a class or any subclass
    (through ``super().__init__`` too); ``dataclasses.replace`` sets a field
    of every dataclass.  A class knob is also set by an assignment to
    ``<expr>.name`` outside the class where ``<expr>`` is not ``self``.  A
    value that is just a defaulted parameter of the enclosing function
    passes that parameter through: it sets the knob only if that parameter
    is set itself."""
    trees = {module: _tree(module, text) for module, text in sources.items()}
    nodes = {q: n for m, t in trees.items() for q, n in _classes(m, t)}
    by_name: dict[str, list] = {}
    bases: dict[str, set] = {}
    for qualname, node in nodes.items():
        by_name.setdefault(node.name, []).append(qualname)
        bases.setdefault(node.name, set()).update(
            getattr(b, "id", getattr(b, "attr", None)) for b in node.bases
        )
    funcs = {m: list(_functions(m, t)) for m, t in trees.items()}
    defs: dict[str, list] = {}  # bare name -> [(knob prefix, positional params, params)]
    for qualname, node, bound in (f for fs in funcs.values() for f in fs):
        if node.name != "__init__":
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args][int(bound):]
            every = set(positional) | {a.arg for a in args.kwonlyargs}
            defs.setdefault(node.name, []).append((qualname, positional, every))

    @functools.lru_cache(maxsize=None)
    def params(name):
        """Positional parameter names of a call to class ``name``."""
        if name not in by_name:
            return ()
        node = nodes[by_name[name][-1]]
        init = _init(node)
        if init is not None:
            return tuple(a.arg for a in init.args.posonlyargs + init.args.args)[1:]
        inherited = tuple(p for b in sorted(bases[name] - {None, name}) for p in params(b))
        if _is_dataclass(node):
            return inherited + tuple(s.target.id for s in node.body if _field_kind(s))
        return inherited

    @functools.lru_cache(maxsize=None)
    def ancestors(name):
        out = {name}
        for base in bases.get(name, set()) - {None, name}:
            out |= ancestors(base)
        return frozenset(out)

    dataclass_fields: dict[str, list] = {}
    for qualname, node in nodes.items():
        if _is_dataclass(node):
            for knob in _knobs(node):
                dataclass_fields.setdefault(knob, []).append(f"{qualname}.{knob}")

    setters: dict[str, set] = {}  # knob -> knobs it passes through (None: none)
    stored: dict[str, set] = {}  # attribute -> classes whose code stores it
    for module, tree in trees.items():
        spans = sorted((n.lineno, n.end_lineno, n.name) for _, n in _classes(module, tree))
        scopes = sorted((n.lineno, n.end_lineno, q, n) for q, n, _ in funcs[module])

        def owner(node):
            """The innermost class whose body holds ``node``, or None."""
            inside = [name for first, last, name in spans if first <= node.lineno <= last]
            return inside[-1] if inside else None

        def through(value, line):
            """The knob a call's argument passes through, or None."""
            if isinstance(value, ast.Starred):
                value = value.value
            if not isinstance(value, ast.Name):
                return None
            for first, last, qualname, node in reversed(scopes):
                if first <= line <= last:
                    args = node.args
                    every = args.posonlyargs + args.args + args.kwonlyargs
                    if value.id in {a.arg for a in every}:
                        if value.id not in _defaulted(args):
                            return None
                        prefix = qualname.removesuffix(".__init__")
                        return f"{prefix}.{value.id}"
            return None

        aliases, calls = {}, []
        splats = {
            t.id: {k.arg for k in n.value.keywords if k.arg}
            for n in tree.body
            if isinstance(n, ast.Assign)
            and isinstance(n.value, ast.Call)
            and getattr(n.value.func, "id", None) == "dict"
            for t in n.targets
            if isinstance(t, ast.Name)
        }
        for node in _walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.append((node, name, owner(node) if name in ("cls", "__init__") else None))
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                for target in getattr(node, "targets", None) or [node.target]:
                    if isinstance(target, ast.Attribute) and not (
                        isinstance(target.value, ast.Name) and target.value.id == "self"
                    ):
                        stored.setdefault(target.attr, set()).add(owner(node))
            elif isinstance(node, ast.ImportFrom):
                aliases.update((a.asname, a.name) for a in node.names if a.asname)
        for node, name, cls in calls:
            func = node.func
            name = aliases.get(name, name)
            targets = []  # (knob prefixes, positional params, params)
            classes = {cls if name == "cls" else name}
            if (
                name == "__init__"
                and isinstance(func.value, ast.Call)
                and getattr(func.value.func, "id", None) == "super"
            ):
                classes = bases.get(cls, set())
            for target in classes & set(by_name):
                prefixes = [q for a in ancestors(target) for q in by_name.get(a, ())]
                targets.append((prefixes, params(target), None))
            for prefix, positional, every in defs.get(name, ()):
                targets.append(([prefix], positional, every))
            if name == "replace":
                for kw in node.keywords:
                    for knob in dataclass_fields.get(kw.arg, ()):
                        setters.setdefault(knob, set()).add(through(kw.value, node.lineno))
            for prefixes, positional, every in targets:
                passes = []  # (parameter name, value)
                for kw in node.keywords:
                    if kw.arg:
                        passes.append((kw.arg, kw.value))
                    elif getattr(kw.value, "id", None) in splats:
                        passes += [(k, kw.value) for k in splats[kw.value.id]]
                    else:
                        passes += [(k, kw.value) for k in every or positional]
                for i, arg in enumerate(node.args):
                    if isinstance(arg, ast.Starred):
                        passes += [(k, arg) for k in positional[i:]]
                        break
                    if i < len(positional):
                        passes.append((positional[i], arg))
                for key, value in passes:
                    dep = through(value, node.lineno)
                    for prefix in prefixes:
                        setters.setdefault(f"{prefix}.{key}", set()).add(dep)

    knobs: dict[str, str] = {}  # knob -> owning class name, or None for a function's
    for qualname, node in nodes.items():
        if not node.name.startswith("_"):
            knobs.update((f"{qualname}.{k}", node.name) for k in _knobs(node))
    for qualname, node, _bound in (f for fs in funcs.values() for f in fs):
        if node.name != "__init__":
            knobs.update((f"{qualname}.{k}", None) for k in _defaulted(node.args))
    knobs = {k: c for k, c in knobs.items() if not k.rpartition(".")[2].startswith("_")}

    fed: dict[str, list] = {}  # knob -> knobs that pass it through
    for knob, deps in setters.items():
        for dep in deps - {None}:
            fed.setdefault(dep, []).append(knob)

    def closure(seeds):
        """Every knob the seeds set, directly or through pass-throughs."""
        out, todo = set(), list(seeds)
        while todo:
            knob = todo.pop()
            if knob not in out:
                out.add(knob)
                todo.extend(fed.get(knob, ()))
        return out

    def covers(entry, knob):
        return knob == entry or knob.rpartition(".")[0] == entry

    seeds = [
        knob
        for knob, cls in knobs.items()
        if None in setters.get(knob, ())
        or (cls and stored.get(knob.rpartition(".")[2], set()) - {cls})
    ]
    unset = set(knobs) - closure(seeds)
    # an allowlisted knob is set from outside src/repro: its pass-throughs count
    excused = {k for k in unset if any(covers(entry, k) for entry in allowlist)}
    owners = set(nodes) | {q for fs in funcs.values() for q, _, _ in fs}
    problems = [
        f"{k}: no setter under src/repro" for k in sorted(unset - closure(seeds + list(excused)))
    ]
    for entry in sorted(allowlist):
        if entry not in knobs and entry not in owners:
            problems.append(f"{entry}: allowlisted but not a knob")
        elif not any(covers(entry, k) for k in unset):
            problems.append(f"{entry}: allowlisted but has a setter now")
    return problems


def test_every_src_knob_has_a_src_setter():
    """Every defaulted parameter of a function, method or constructor and
    every defaulted dataclass field under src/repro is set by src code, or
    ``_NO_SRC_SETTER`` says why it stays a knob.  A failure is either a knob
    only tests, examples or perfbench set (make it a constant, or allowlist
    it with a reason) or a stale entry."""
    sources = _module_sources(pathlib.Path(__file__).parent.parent / "src")
    assert _setter_guard(sources, _NO_SRC_SETTER) == []
    assert all(reason and "\n" not in reason for reason in _NO_SRC_SETTER.values())


def test_setter_guard_flags_a_restored_knob():
    """``yield_poll`` back on :class:`BackgroundConfig`, read by nothing
    that sets it, is a knob again and fails."""
    sources = _module_sources(pathlib.Path(__file__).parent.parent / "src")
    anchor = "    floor: float = 0.1\n"
    assert anchor in sources["background.config"]
    sources["background.config"] = sources["background.config"].replace(
        anchor, anchor + "    yield_poll: float = 5e-4\n"
    )
    assert _setter_guard(sources, _NO_SRC_SETTER) == [
        "background.config.BackgroundConfig.yield_poll: no setter under src/repro"
    ]


def test_setter_guard_flags_a_restored_function_knob():
    """``collect_first`` back on :func:`parked_gc`, passed by no call, is a
    knob again and fails."""
    sources = _module_sources(pathlib.Path(__file__).parent.parent / "src")
    anchor = "def parked_gc() -> Iterator[None]:\n"
    assert anchor in sources["common.perf"]
    sources["common.perf"] = sources["common.perf"].replace(
        anchor, "def parked_gc(collect_first: bool = True) -> Iterator[None]:\n"
    )
    assert _setter_guard(sources, _NO_SRC_SETTER) == [
        "common.perf.parked_gc.collect_first: no setter under src/repro"
    ]


def test_setter_guard_counts_no_pass_through_of_an_unset_parameter():
    """``FaultSchedule.when(deadline)`` handing its own default to
    ``Trigger(deadline=deadline)`` sets neither while no call passes
    ``deadline`` to ``when``; one that does (or an allowlist entry for the
    outer parameter) sets both."""
    sources = _module_sources(pathlib.Path(__file__).parent.parent / "src")
    events = sources["fault.events"]
    field_anchor = "    poll: float = 0.001\n\n    def __post_init__"
    call_anchor = "        poll: float = 0.001,\n    ) -> \"FaultSchedule\":\n"
    trigger_call = "Trigger(when=predicate, poll=poll)"
    assert field_anchor in events and call_anchor in events and trigger_call in events
    events = events.replace(
        field_anchor, field_anchor.replace("\n\n", "\n    deadline: float | None = None\n\n")
    )
    events = events.replace(
        call_anchor, call_anchor.replace("0.001,\n", "0.001,\n        deadline: float | None = None,\n")
    )
    sources["fault.events"] = events.replace(
        trigger_call, "Trigger(when=predicate, poll=poll, deadline=deadline)"
    )
    assert _setter_guard(sources, _NO_SRC_SETTER) == [
        "fault.events.FaultSchedule.when.deadline: no setter under src/repro",
        "fault.events.Trigger.deadline: no setter under src/repro",
    ]
    allowlist = dict(_NO_SRC_SETTER)
    allowlist["fault.events.FaultSchedule.when.deadline"] = "a user's schedule gives up"
    assert _setter_guard(sources, allowlist) == []
    sources["fault.scenarios"] += "LATE = FaultSchedule().when(bool, ScrubPass(), deadline=1.0)\n"
    assert _setter_guard(sources, _NO_SRC_SETTER) == []


def test_setter_guard_counts_function_calls_by_keyword_position_and_splat():
    sources = {
        "pkg.mod": (
            "class Pool:\n"
            "    def grow(self, n=1, cap=8, lanes=2):\n"
            "        pass\n"
            "    def shrink(self, n=1, floor=0):\n"
            "        pass\n"
            "def fill(pool, depth=4, width=2):\n"
            "    pool.grow(depth)\n"  # passes fill's depth through
            "    pool.shrink(*ARGS)\n"
            "def build(pool, size=3):\n"
            "    fill(pool, width=size)\n"  # passes build's size through
            "ARGS = (1, 2)\n"
            "CELL = dict(cap=4)\n"
            "fill(Pool(), 6)\n"
            "Pool().grow(**CELL)\n"
        ),
    }
    assert _setter_guard(sources, {}) == [
        "pkg.mod.Pool.grow.lanes: no setter under src/repro",
        "pkg.mod.build.size: no setter under src/repro",
        "pkg.mod.fill.width: no setter under src/repro",
    ]


def test_setter_guard_flags_stale_function_parameter_entries():
    sources = {"pkg.mod": "def grow(n=1, cap=8):\n    pass\ngrow(cap=4)\n"}
    allowlist = {
        "pkg.mod.grow.n": "a test varies it",
        "pkg.mod.grow.cap": "had no setter once",
        "pkg.mod.grow.lanes": "was retired",
    }
    assert _setter_guard(sources, allowlist) == [
        "pkg.mod.grow.cap: allowlisted but has a setter now",
        "pkg.mod.grow.lanes: allowlisted but not a knob",
    ]


def test_setter_guard_counts_replace_and_an_outside_store():
    sources = {
        "pkg.cfg": (
            "from dataclasses import dataclass, field\n"
            "@dataclass(frozen=True)\n"
            "class Cfg:\n"
            "    floor: float = 0.1\n"
            "    window: float = 0.05\n"
            "    tags: list = field(default_factory=list)\n"
            "    _cache: dict = None\n"
        ),
        "pkg.dev": (
            "class Dev:\n"
            "    def __init__(self, depth=4, width=2):\n"
            "        self.depth = depth\n"
            "        self.width = width\n"
        ),
        "pkg.run": (
            "from dataclasses import replace\n"
            "from pkg.cfg import Cfg\n"
            "TUNED = replace(Cfg(), floor=0.02)\n"
            "def build(dev):\n"
            "    dev.depth = 8\n"
        ),
    }
    assert _setter_guard(sources, {}) == [
        "pkg.cfg.Cfg.window: no setter under src/repro",
        "pkg.dev.Dev.width: no setter under src/repro",
    ]


def test_setter_guard_counts_position_splat_and_super_init():
    sources = {
        "pkg.dev": (
            "from dataclasses import dataclass\n"
            "class Dev:\n"
            "    def __init__(self, depth=4, width=2, lanes=1):\n"
            "        self.depth = depth\n"
            "class Fast(Dev):\n"
            "    def __init__(self):\n"
            "        super().__init__(lanes=8)\n"
            "@dataclass\n"
            "class Spec:\n"
            "    name: str\n"
            "    n_ops: int = 10\n"
            "CELL = dict(n_ops=20)\n"
            "SPECS = [Spec('a', **CELL), Dev(8)]\n"
        ),
    }
    assert _setter_guard(sources, {}) == ["pkg.dev.Dev.width: no setter under src/repro"]


def test_setter_guard_counts_no_store_inside_the_class_itself():
    sources = {
        "pkg.dev": (
            "class Dev:\n"
            "    def __init__(self, depth=4):\n"
            "        self.depth = depth\n"
            "    def grow(self, other):\n"
            "        self.depth = 8\n"
            "        other.depth = 8\n"
            "DEV = Dev()\n"
        ),
    }
    assert _setter_guard(sources, {}) == ["pkg.dev.Dev.depth: no setter under src/repro"]


def test_setter_guard_flags_stale_allowlist_entries():
    sources = {
        "pkg.dev": (
            "class Dev:\n"
            "    def __init__(self, depth=4, width=2):\n"
            "        self.depth = depth\n"
            "DEV = Dev(width=3)\n"
        ),
    }
    allowlist = {
        "pkg.dev.Dev": "every knob of the class",
        "pkg.dev.Dev.width": "had no setter once",
        "pkg.dev.Dev.lanes": "was retired",
    }
    assert _setter_guard(sources, allowlist) == [
        "pkg.dev.Dev.lanes: allowlisted but not a knob",
        "pkg.dev.Dev.width: allowlisted but has a setter now",
    ]
