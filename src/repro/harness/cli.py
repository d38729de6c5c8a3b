"""Command-line entry point: regenerate any paper artifact, run scenarios.

Usage::

    python -m repro list                 # show available experiments
    python -m repro fig5 [--scale full]  # regenerate Fig. 5
    python -m repro table1
    python -m repro all --scale quick
    python -m repro scenario --list      # fault-injection scenario catalog
    python -m repro scenario crash-mid-update --seed 7

    # method x trace (or scenario x seed) grids, fanned across a process pool:
    python -m repro sweep --methods tsue,pl --traces tencloud,alicloud --workers 4
    python -m repro sweep --scenarios crash-mid-update,double-failure \
        --seeds 7,8 --workers 2

Every command takes only its own flags (``python -m repro <command> -h``);
a flag that belongs to another command is an error, not ignored.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable

from repro.harness import fig1, fig5, fig6, fig7, fig8, table1, table2

__all__ = ["main", "EXPERIMENTS"]

EXPERIMENTS: dict[str, Callable[[], tuple[str, dict]]] = {
    "fig1": lambda: fig1.run(),
    "fig5": lambda: fig5.run(),
    "fig6a": lambda: fig6.run_fig6a(),
    "fig6b": lambda: fig6.run_fig6b(),
    "fig7": lambda: fig7.run(),
    "fig8a": lambda: fig8.run_fig8a(),
    "fig8b": lambda: fig8.run_fig8b(),
    "table1": lambda: table1.run(),
    "table2": lambda: table2.run(),
}


def _run_scenario(args) -> int:
    # imported lazily so plain experiment runs stay light
    from repro.fault.runner import ScenarioRunner
    from repro.fault.scenarios import SCENARIOS, get_scenario

    if args.list or args.name is None:
        for name in sorted(SCENARIOS):
            print(f"{name:24s} {SCENARIOS[name]().description}")
        return 0
    try:
        spec = get_scenario(args.name)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    t0 = time.time()
    result = ScenarioRunner(spec).run(seed=args.seed)
    print(result.summary())
    print(f"[{spec.name}: {time.time() - t0:.1f}s]")
    return 0


def _run_sweep(args) -> int:
    # imported lazily so plain experiment runs stay light
    from repro.harness.runner import ExperimentConfig
    from repro.harness.sweep import (
        CellFailure,
        SweepExecutor,
        run_grid,
        scenario_cells,
    )
    from repro.metrics.tables import format_markdown, format_table

    t0 = time.perf_counter()
    # strict=False: report failed cells instead of aborting the sweep
    executor = SweepExecutor(workers=args.workers, strict=False)
    seeds = [int(s) for s in args.seeds.split(",") if s]
    if args.scenarios:
        names = [s for s in args.scenarios.split(",") if s]
        results = executor.run_scenarios(names, seeds)
        if args.table:
            # scenario x seed benchmark grid as markdown (scenario_cells is
            # the executor's own result ordering — labels cannot desync)
            rows: dict[str, dict[str, object]] = {}
            for (name, seed), res in zip(scenario_cells(names, seeds), results):
                rows.setdefault(name, {})[f"seed {seed}"] = (
                    "FAILED"
                    if isinstance(res, CellFailure)
                    else f"{res.ops} ops / {res.failures} fail / {res.digest[:8]}"
                )
            print(format_markdown(rows, corner="scenario"))
        else:
            for res in results:
                print(repr(res) if isinstance(res, CellFailure) else res.summary())
                print()
    else:
        methods = [s for s in args.methods.split(",") if s]
        traces = [s for s in args.traces.split(",") if s]
        grid = run_grid(
            [
                (
                    (f"{trace} seed{seed}", method.upper()),
                    ExperimentConfig(
                        method=method,
                        trace=trace,
                        n_clients=args.clients,
                        n_ops=args.ops,
                        seed=seed,
                    ),
                )
                for trace in traces
                for method in methods
                for seed in seeds
            ],
            executor=executor,
        )
        results = [res for cols in grid.values() for res in cols.values()]
        rows = {
            row: {
                col: (
                    float("nan") if isinstance(res, CellFailure) else res.iops
                )
                for col, res in cols.items()
            }
            for row, cols in grid.items()
        }
        if args.table:
            print(f"### sweep — aggregate update IOPS ({args.ops} ops)\n")
            print(format_markdown(rows, corner="trace / seed", floatfmt="{:,.0f}"))
        else:
            print(
                format_table(
                    rows,
                    title=f"sweep — aggregate update IOPS ({args.ops} ops)",
                    floatfmt="{:,.0f}",
                )
            )
    failed = sum(isinstance(res, CellFailure) for res in results)
    print(
        f"[sweep: {len(results)} cells, {executor.workers} workers, "
        f"{failed} failed, {time.perf_counter() - t0:.1f}s]"
    )
    return 0


def _run_slo(args) -> int:
    """Run the QoS x fault SLO grid (or one slo-* scenario) and report
    per-tenant percentiles/availability plus the windowed time series."""
    # imported lazily so plain experiment runs stay light
    from repro.fault.runner import ScenarioRunner
    from repro.fault.scenarios import SCENARIOS, get_scenario
    from repro.metrics.tables import format_table

    if args.name is not None:
        names = [args.name]
    else:
        names = sorted(n for n in SCENARIOS if n.startswith("slo-"))
    grid: dict[str, dict[str, float]] = {}
    for name in names:
        try:
            spec = get_scenario(name)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        if not spec.frontend:
            print(f"scenario {name!r} does not run the front end", file=sys.stderr)
            return 2
        if args.window is not None:
            spec.slo_window = args.window
        result = ScenarioRunner(spec).run(seed=args.seed)
        print(result.summary())
        series = result.slo_series
        if series.get("t"):
            print("  window series (availability / p99 during the fault window):")
            print(f"    {'t(s)':>8} {'avail':>7} {'p99(ms)':>9} {'arrivals':>9}")
            for t, avail, p99, n in zip(
                series["t"],
                series["availability"],
                series["p99"],
                series["submitted"],
            ):
                print(f"    {t:8.3f} {avail:7.3f} {p99 * 1e3:9.3f} {n:9.0f}")
        print()
        for who, stats in result.slo.items():
            grid[f"{name} {who}"] = {
                "p50 ms": stats["p50"] * 1e3,
                "p99 ms": stats["p99"] * 1e3,
                "p999 ms": stats["p999"] * 1e3,
                "avail": stats["availability"],
                "goodput/s": stats["goodput"],
                "budget": stats["error_budget"],
            }
    print(
        format_table(
            grid,
            title="SLO grid — per tenant/class (QoS x fault)",
            floatfmt="{:,.3f}",
        )
    )
    return 0


def _run_background(args) -> int:
    """Run the bg-* maintenance-plane grid (or one bg-* scenario): per-stream
    bandwidth/backlog/time-to-drain plus the governor on/off p99 contrast."""
    # imported lazily so plain experiment runs stay light
    from repro.fault.runner import ScenarioRunner
    from repro.fault.scenarios import SCENARIOS, get_scenario
    from repro.metrics.tables import format_table

    if args.name is not None:
        names = [args.name]
    else:
        names = sorted(n for n in SCENARIOS if n.startswith("bg-"))
    grid: dict[str, dict[str, float]] = {}
    overall: dict[str, dict] = {}
    for name in names:
        try:
            spec = get_scenario(name)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        result = ScenarioRunner(spec).run(seed=args.seed)
        print(result.summary())
        print()
        overall[name] = result
        for stream, stats in result.background.items():
            if not stats["submitted_items"]:
                continue
            grid[f"{name} {stream}"] = {
                "grants": stats["granted_items"],
                "MB": stats["granted_bytes"] / 1e6,
                "MB/s": stats["bandwidth"] / 1e6,
                "drain s": stats["time_to_drain"],
                "backlog B": stats["backlog_bytes"],
            }
    print(
        format_table(
            grid,
            title="background grid — per maintenance stream",
            floatfmt="{:,.2f}",
        )
    )
    on = overall.get("bg-rebalance-governor-on")
    off = overall.get("bg-rebalance-governor-off")
    if on is not None and off is not None and on.slo_overall and off.slo_overall:
        p_on = on.slo_overall["p99"] * 1e3
        p_off = off.slo_overall["p99"] * 1e3
        print(
            f"\ngovernor contrast: foreground p99 {p_off:.3f} ms (off) -> "
            f"{p_on:.3f} ms (on), "
            f"{on.governor.get('breaches', 0):.0f} breaches, min scale "
            f"{on.governor.get('min_scale', 1.0):.2f}"
        )
    return 0


def _run_profile(args) -> int:
    """cProfile one experiment (default: perfbench's ``tsue_mixed_ten`` cell
    at 1500 ops; ``--osds`` widens the cluster) and print its phase and
    memory lines and the top-N cumulative-time table.  Host time is
    *measured* by ``perfbench/run.py``; this only says where it goes."""
    # imported lazily so plain experiment runs stay light
    import cProfile
    import io
    import pstats

    from repro.harness.runner import ExperimentConfig, run_experiment

    method = args.methods.split(",")[0]
    cfg = ExperimentConfig(method=method, n_ops=args.ops, n_osds=args.osds)
    profiler = cProfile.Profile()
    profiler.enable()
    result = run_experiment(cfg)
    profiler.disable()
    perf = result.perf
    print(
        f"profiled {method} run: {cfg.n_ops} ops on {cfg.n_osds} OSDs, "
        f"{perf['events']:.0f} events "
        f"in {perf['wall_seconds']:.3f}s wall "
        f"({perf['events_per_sec']:.0f} ev/s, "
        f"{perf['sim_ops_per_sec']:.0f} sim-ops/s)\n"
        f"phases: replay {perf['replay_events']:.0f} ev in "
        f"{perf['replay_wall_seconds']:.3f}s "
        f"({perf['replay_us_per_event']:.2f} us/ev), "
        f"drain {perf['drain_events']:.0f} ev in "
        f"{perf['drain_wall_seconds']:.3f}s "
        f"({perf['drain_us_per_event']:.2f} us/ev)\n"
        f"memory: rss {perf['rss_mb_end']:.1f} MiB at end, "
        f"{perf['minor_faults']:.0f} minor faults, "
        f"{perf['sys_seconds']:.3f}s sys\n"
    )
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats(args.sort).print_stats(args.top)
    print(stream.getvalue())
    return 0


def _run_topology(args) -> int:
    """Static policy x event movement matrix, or a live elastic scenario."""
    # imported lazily so plain experiment runs stay light
    from repro.cluster.ids import BlockId
    from repro.metrics.tables import format_table
    from repro.placement import MigrationPlanner, Topology, make_policy

    if args.live:
        from repro.fault.runner import ScenarioRunner
        from repro.fault.scenarios import get_scenario

        name = f"topo-{args.event}-{args.policy}"
        try:
            spec = get_scenario(name)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        result = ScenarioRunner(spec).run(seed=args.seed)
        print(result.summary())
        stats = result.rebalance_stats
        print(
            f"[{name}: moved {stats.get('moved_bytes', 0) / 1e6:.1f} MB, "
            f"time-to-balanced {stats.get('time_to_balanced', 0):.3f}s]"
        )
        return 0

    k, m = args.k, args.m
    width = k + m
    n = args.osds
    policies = [p for p in args.policies.split(",") if p]
    events = [e for e in args.events.split(",") if e]
    blocks = [
        BlockId(f, s, i)
        for f in range(1, args.files + 1)
        for s in range(args.stripes)
        for i in range(width)
    ]

    def build_topology() -> Topology:
        return Topology.flat(
            n, osds_per_host=args.osds_per_host, hosts_per_rack=args.hosts_per_rack
        )

    print(build_topology().describe())
    print()
    rows: dict[str, dict[str, float]] = {}
    for policy_name in policies:
        rows[policy_name] = {}
        for event in events:
            topo = build_topology()
            try:
                old = make_policy(policy_name, topo, k, m)
            except ValueError as exc:
                print(exc, file=sys.stderr)
                return 2
            if event == "join":
                topo.add_osd(n, weight=1.0)
            elif event == "decommission":
                topo.remove_osd(n - 1)
            elif event == "weight":
                topo.set_weight(0, 0.5)
            else:
                print(f"unknown topology event {event!r}", file=sys.stderr)
                return 2
            plan = MigrationPlanner.plan(old.osd_of, make_policy(policy_name, topo, k, m), blocks)
            rows[policy_name][event] = 100.0 * plan.fraction_moved
    print(
        format_table(
            rows,
            title=(
                f"data moved by one topology event (% of {len(blocks)} blocks; "
                f"RS({k},{m}) on {n} OSDs; minimal ~{100.0 / n:.1f}%)"
            ),
            floatfmt="{:.1f}",
        )
    )
    print(
        "[static planner diff - no simulation; run with --live "
        "--policy crush --event join for a full DES scenario]"
    )
    return 0


def _run_list(args) -> int:
    for name in sorted(EXPERIMENTS):
        print(name)
    return 0


def _run_experiments(args) -> int:
    if args.scale:
        os.environ["REPRO_SCALE"] = args.scale
    targets = sorted(EXPERIMENTS) if args.command == "all" else [args.command]
    for name in targets:
        t0 = time.time()
        text, _data = EXPERIMENTS[name]()
        print(text)
        print(f"[{name}: {time.time() - t0:.1f}s]\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the TSUE paper's tables and figures on the "
        "simulated cluster, run a named fault-injection scenario, or fan a "
        "sweep grid across a process pool.",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument(
        "--seed",
        type=int,
        default=2025,
        help="simulation seed (same seed = same digest)",
    )

    def command(name: str, run, summary: str, seed: bool = False):
        sub = commands.add_parser(
            name, help=summary, parents=[seeded] if seed else [], allow_abbrev=False
        )
        sub.set_defaults(run=run)
        return sub

    for name in sorted(EXPERIMENTS) + ["all"]:
        sub = command(
            name,
            _run_experiments,
            "regenerate every artifact" if name == "all" else f"regenerate {name}",
        )
        sub.add_argument(
            "--scale",
            choices=["quick", "full"],
            help="experiment scale (default: REPRO_SCALE env or 'quick')",
        )
    command("list", _run_list, "list the artifacts")

    sub = command(
        "scenario", _run_scenario, "run one fault-injection scenario", seed=True
    )
    sub.add_argument("name", nargs="?", help="scenario name (omit to browse)")
    sub.add_argument("--list", action="store_true", help="list the catalog and exit")

    sub = command(
        "slo",
        _run_slo,
        "QoS x fault front-end grid with per-tenant SLO metrics",
        seed=True,
    )
    sub.add_argument("name", nargs="?", help="one slo-* scenario (default: all)")
    sub.add_argument(
        "--window",
        type=float,
        help="time-series bucket width in simulated seconds (default: each "
        "scenario's slo_window)",
    )

    sub = command(
        "background",
        _run_background,
        "bg-* maintenance-plane grid: per-stream bandwidth/drain read-outs and "
        "the governor on/off contrast",
        seed=True,
    )
    sub.add_argument("name", nargs="?", help="one bg-* scenario (default: all)")

    sub = command(
        "sweep",
        _run_sweep,
        "method x trace x seed (or scenario x seed) grid over a process pool",
    )
    sub.add_argument("--methods", default="tsue", help="comma-separated update methods")
    sub.add_argument("--traces", default="tencloud", help="comma-separated trace names")
    sub.add_argument(
        "--scenarios",
        default="",
        help="comma-separated fault scenarios (switches to a scenario x seed grid)",
    )
    sub.add_argument("--seeds", default="2025", help="comma-separated simulation seeds")
    sub.add_argument("--clients", type=int, default=16)
    sub.add_argument("--ops", type=int, default=1200, help="ops per cell")
    sub.add_argument(
        "--workers",
        type=int,
        help="process-pool size (default: REPRO_WORKERS or 1 = serial)",
    )
    sub.add_argument(
        "--table",
        action="store_true",
        help="render the grid as a GitHub-markdown benchmark table",
    )

    sub = command(
        "profile",
        _run_profile,
        "cProfile one experiment and print the top-N cumulative table",
    )
    sub.add_argument(
        "--methods", default="tsue", help="update method (the first of a comma list)"
    )
    sub.add_argument("--ops", type=int, default=1500)
    sub.add_argument("--osds", type=int, default=16, help="cluster size")
    sub.add_argument("--top", type=int, default=25, help="rows of the pstats table")
    sub.add_argument(
        "--sort",
        default="cumulative",
        help="pstats sort key (cumulative, tottime, calls...)",
    )

    sub = command(
        "topology",
        _run_topology,
        "placement policies under elastic topology events",
        seed=True,
    )
    sub.add_argument(
        "--policies", default="rotation,crush", help="comma-separated policies"
    )
    sub.add_argument(
        "--events",
        default="join,decommission,weight",
        help="comma-separated topology events for the movement matrix",
    )
    sub.add_argument("--osds", type=int, default=16, help="cluster size")
    sub.add_argument("--k", type=int, default=4)
    sub.add_argument("--m", type=int, default=2)
    sub.add_argument("--osds-per-host", type=int, default=1)
    sub.add_argument("--hosts-per-rack", type=int, default=4)
    sub.add_argument("--files", type=int, default=8)
    sub.add_argument("--stripes", type=int, default=40)
    sub.add_argument(
        "--live",
        action="store_true",
        help="run the catalog scenario topo-<event>-<policy> on the DES "
        "instead of the static planner matrix",
    )
    sub.add_argument("--policy", default="crush", help="with --live: placement policy")
    sub.add_argument("--event", default="join", help="with --live: topology event")

    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
