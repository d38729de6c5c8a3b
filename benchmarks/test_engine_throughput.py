"""Engine-throughput perf tier: events/sec + sweep speedups -> BENCH_engine.json.

The tracked perf tier of the ROADMAP: a run with ``REPRO_BENCH_RECORD=1``
(the nightly job sets it; tier-1 does not, so a verify run leaves the tree
clean) appends one entry to the ``BENCH_engine.json`` trajectory file at
the repo root (uploaded as a CI artifact by the nightly job), recording

* **engine** — wall-clock, DES events, events/sec, and simulated-ops/sec
  of the profiled 1500-op TSUE experiment, against the recorded
  seed-engine baseline.  Events/sec rewards doing the same work with
  *more* scaffolding, so since macro-op batching (which removes events)
  the entry also carries ``sim_ops_per_sec`` — the honest throughput
  metric — and the regression gate tracks both;
* **thousand_osd** — a 1000-OSD smoke experiment (the scale regime the
  vectorized bulk ops and batched fan-outs target), recording wall-clock
  and both throughput metrics so scaling regressions show up nightly;
* **sweep** — wall-clock of a 4-cell Fig. 5 grid run serially, through the
  process pool, and from a warm content-addressed cache;
* **frontend** — per-class p99 latency and availability of the QoS x fault
  SLO grid (slo-qos-crash), so front-end service levels are tracked
  nightly alongside raw engine throughput;
* **background_interference** — foreground p99/availability of the
  maintenance-storm scenario pair with the SLO governor on vs off, plus
  per-stream grant/drain accounting: the unified background scheduler's
  foreground-protection contract, tracked nightly.

Assertions encode the perf bar:

* engine events/sec >= 2x the seed baseline,
* warm-cache sweep >= 3x faster than the cold serial sweep,
* 4-worker sweep >= 3x faster than serial — asserted only on hosts with
  >= 4 CPUs (a process pool cannot beat serial on fewer cores; the
  measurement is still recorded).
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.harness.fig5 import cell_config
from repro.harness.runner import ExperimentConfig, run_experiment
from repro.harness.sweep import SweepExecutor

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
_BENCH_PATH = _REPO_ROOT / "BENCH_engine.json"

#: measured at the seed commit (PR 1 tree) on the reference container:
#: 1500-op TSUE experiment, 66220 events in 1.905 s wall
SEED_BASELINE = {
    "wall_seconds": 1.905,
    "events": 66220,
    "events_per_sec": 34760.0,
}

#: wall-clock of :func:`_calibrate` on the same reference container.  The
#: baseline above is meaningless on a host of different speed, so the
#: effective baseline is scaled by (calibration now / reference
#: calibration) — a slow shared CI runner raises its own bar accordingly
#: instead of failing without a code regression.
CALIBRATION_SECONDS = 0.205

#: required speedups (acceptance criteria of the engine overhaul PR)
MIN_ENGINE_SPEEDUP = 2.0
MIN_SWEEP_SPEEDUP = 3.0


def _calibrate() -> float:
    """Seconds for a fixed pure-Python + dict workload shaped like the
    event loop (attribute traffic, heap-ish tuples, small dict churn)."""
    t0 = time.perf_counter()
    acc = 0
    book: dict[int, int] = {}
    for i in range(600_000):
        tup = (float(i), 1, i)
        acc ^= hash(tup)
        book[i & 1023] = i
        acc += book.get((i + 7) & 1023, 0)
    assert acc != 1  # keep the loop observable
    return time.perf_counter() - t0


def _host_factor() -> tuple[float, float]:
    """``(host_factor, calibration_seconds)``, median of three samples.

    A single ~0.2s calibration sample can catch a frequency boost or a
    scheduler preemption and swing the host-speed estimate by ±25% —
    enough to push a genuine 2.2x engine speedup under the 2.0x bar (or
    mask a real regression behind a slow sample).  The median of three is
    robust to one bad sample in either direction."""
    samples = sorted(_calibrate() for _ in range(3))
    cal = samples[1]
    return (CALIBRATION_SECONDS / cal if cal > 0 else 1.0), cal


#: per-bench-kind history cap: the earliest entry of each kind (the seed
#: baseline of that trajectory) plus the most recent ones are kept; the
#: middle is dropped so the file stays reviewable instead of growing one
#: entry per nightly run forever
_KEEP_RECENT_PER_BENCH = 11


def _compact(entries: list[dict]) -> list[dict]:
    """Cap history per bench kind: first entry + last N, original order."""
    keep: set[int] = set()
    by_kind: dict[str, list[int]] = {}
    for i, entry in enumerate(entries):
        by_kind.setdefault(str(entry.get("bench")), []).append(i)
    for idxs in by_kind.values():
        keep.add(idxs[0])  # the kind's oldest entry: its seed baseline
        keep.update(idxs[-_KEEP_RECENT_PER_BENCH:])
    return [entry for i, entry in enumerate(entries) if i in keep]


def _append_bench(entry: dict) -> None:
    """Append one entry to the BENCH_engine.json trajectory file — only
    when ``REPRO_BENCH_RECORD=1`` asks for the tracked file to be written."""
    if os.environ.get("REPRO_BENCH_RECORD") != "1":
        return
    doc = {"schema": 1, "entries": []}
    if _BENCH_PATH.exists():
        try:
            doc = json.loads(_BENCH_PATH.read_text())
        except (json.JSONDecodeError, OSError):
            pass
    doc.setdefault("entries", []).append(entry)
    doc["entries"] = _compact(doc["entries"])
    _BENCH_PATH.write_text(json.dumps(doc, indent=2) + "\n")


def _sweep_cells() -> list[ExperimentConfig]:
    """The 4-cell figure sweep: one Fig. 5 subplot row (2 methods x 2 RS)."""
    return [
        cell_config(method, "tencloud", k, m, n_clients=16, n_ops=800)
        for method in ("tsue", "pl")
        for k, m in ((6, 2), (6, 4))
    ]


def test_engine_throughput(once):
    """>= 2x events/sec on the profiled 1500-op TSUE experiment.

    Best-of-5: the workload is deterministic (same event count every run),
    so run-to-run wall-clock spread is pure host noise — scheduler
    preemption, cache state, CI-runner neighbors.  The fastest run is the
    closest observation of the engine's actual cost; all five land in the
    ``runs`` field of the trajectory entry so the spread stays visible.
    """
    cfg = ExperimentConfig(method="tsue", n_ops=1500)
    results = [once(lambda: run_experiment(cfg))]
    results += [run_experiment(cfg) for _ in range(4)]
    runs = [r.perf for r in results]
    perf = max(runs, key=lambda p: p["events_per_sec"])
    # the event count is deterministic: any spread would mean the engine
    # itself went nondeterministic, which no amount of host noise excuses
    assert len({p["events"] for p in runs}) == 1, runs
    # scale the recorded reference-container baseline to this host's speed
    host_factor, cal = _host_factor()
    baseline_evps = SEED_BASELINE["events_per_sec"] * host_factor
    baseline_wall = SEED_BASELINE["wall_seconds"] / host_factor
    speedup_events = perf["events_per_sec"] / baseline_evps
    speedup_wall = baseline_wall / perf["wall_seconds"]
    _append_bench(
        {
            "bench": "engine",
            "timestamp": time.time(),
            "n_ops": cfg.n_ops,
            "events": perf["events"],
            "wall_seconds": perf["wall_seconds"],
            "sim_seconds": perf["sim_seconds"],
            "events_per_sec": perf["events_per_sec"],
            "sim_ops_per_sec": perf["sim_ops_per_sec"],
            "runs": [
                {
                    "wall_seconds": p["wall_seconds"],
                    "events_per_sec": p["events_per_sec"],
                    "sim_ops_per_sec": p["sim_ops_per_sec"],
                }
                for p in runs
            ],
            "seed_baseline": SEED_BASELINE,
            "calibration_seconds": cal,
            "host_factor": host_factor,
            "speedup_events_per_sec": speedup_events,
            "speedup_wall": speedup_wall,
        }
    )
    assert speedup_events >= MIN_ENGINE_SPEEDUP, (
        f"engine throughput regressed: {perf['events_per_sec']:.0f} ev/s is "
        f"only {speedup_events:.2f}x the host-scaled seed baseline "
        f"({baseline_evps:.0f} ev/s); the bar is {MIN_ENGINE_SPEEDUP}x"
    )


def test_thousand_osd_smoke():
    """Thousand-OSD smoke: one modest-op experiment at the cluster scale
    the vectorized bulk ops and macro-op fan-out batching exist for.  No
    speedup bar (the regime is setup-dominated and host-noisy); the entry
    lands in BENCH_engine.json so a scaling step-function — placement
    resolution, per-device setup, fan-out scaffolding — shows up in the
    nightly trajectory.  Best-of-2 to shave scheduler noise."""
    cfg = ExperimentConfig(
        method="tsue",
        n_osds=1000,
        n_clients=8,
        n_ops=300,
        n_files=8,
        stripes_per_file=4,
    )
    runs = [run_experiment(cfg).perf for _ in range(2)]
    perf = max(runs, key=lambda p: p["events_per_sec"])
    assert len({p["events"] for p in runs}) == 1, runs
    host_factor, cal = _host_factor()
    _append_bench(
        {
            "bench": "thousand_osd",
            "timestamp": time.time(),
            "n_osds": cfg.n_osds,
            "n_ops": cfg.n_ops,
            "events": perf["events"],
            "wall_seconds": perf["wall_seconds"],
            "sim_seconds": perf["sim_seconds"],
            "events_per_sec": perf["events_per_sec"],
            "sim_ops_per_sec": perf["sim_ops_per_sec"],
            "calibration_seconds": cal,
            "host_factor": host_factor,
        }
    )
    # sanity floor only: the simulation must actually have run at scale
    assert perf["events"] > 10_000
    assert perf["sim_ops_per_sec"] > 0


def _timed_sweep(executor, cells):
    """Run one sweep with the cyclic GC parked (collect first, re-enable
    after).  The simulations allocate enough that ambient gen-2 passes —
    whose cost scales with everything *earlier* tests left alive — can
    multiply a ~1s sweep's wall clock several-fold, drowning the executor
    costs this bench compares (pytest-benchmark disables GC for the same
    reason)."""
    import gc

    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        results = executor.run(cells)
        return time.perf_counter() - t0, results
    finally:
        gc.enable()


def test_sweep_executor_speedup(tmp_path):
    """4-cell sweep: warm cache >= 3x serial always; 4 workers >= 3x serial
    on hosts that have the cores for it (recorded regardless).

    Every wall is best-of-2: a single scheduler preemption inside one
    ~1s measurement window otherwise flips the serial/parallel ratio on a
    noisy host, and the fastest observation of each executor is the
    closest to its actual cost (same doctrine as the engine bench)."""
    cells = _sweep_cells()
    cache_dir = tmp_path / "cache"

    wall_serial, serial = _timed_sweep(
        SweepExecutor(workers=1, cache_dir=str(cache_dir)), cells
    )
    wall_serial2, _ = _timed_sweep(
        SweepExecutor(workers=1, cache_dir=str(tmp_path / "cold2")), cells
    )
    wall_serial = min(wall_serial, wall_serial2)
    wall_cached, cached = _timed_sweep(
        SweepExecutor(workers=1, cache_dir=str(cache_dir)), cells
    )
    wall_cached2, _ = _timed_sweep(
        SweepExecutor(workers=1, cache_dir=str(cache_dir)), cells
    )
    wall_cached = min(wall_cached, wall_cached2)
    wall_parallel, parallel = _timed_sweep(
        SweepExecutor(workers=4, cache_dir=str(tmp_path / "c2")), cells
    )
    wall_parallel2, _ = _timed_sweep(
        SweepExecutor(workers=4, cache_dir=str(tmp_path / "c3")), cells
    )
    wall_parallel = min(wall_parallel, wall_parallel2)

    # parallel and cached sweeps reproduce the serial results exactly
    for s, c, p in zip(serial, cached, parallel):
        assert s.iops == c.iops == p.iops
        assert s.latency == c.latency == p.latency
        assert s.workload == c.workload == p.workload

    cpus = os.cpu_count() or 1
    cache_speedup = wall_serial / wall_cached if wall_cached > 0 else float("inf")
    parallel_speedup = wall_serial / wall_parallel if wall_parallel > 0 else 0.0
    _append_bench(
        {
            "bench": "sweep",
            "timestamp": time.time(),
            "cells": len(cells),
            "cpus": cpus,
            "wall_serial": wall_serial,
            "wall_parallel_4w": wall_parallel,
            "wall_cached": wall_cached,
            "speedup_parallel": parallel_speedup,
            "speedup_cached": cache_speedup,
        }
    )

    assert cache_speedup >= MIN_SWEEP_SPEEDUP, (
        f"warm-cache sweep only {cache_speedup:.1f}x faster than cold serial"
    )
    if cpus >= 4:
        assert parallel_speedup >= MIN_SWEEP_SPEEDUP, (
            f"4-worker sweep only {parallel_speedup:.1f}x faster than serial "
            f"on a {cpus}-cpu host"
        )
    elif cpus == 1:
        # the executor must detect the single core and fall back to serial
        # execution: the warm in-process prefix memos then keep the second
        # sweep at (noise-tolerance) parity with the cold serial one —
        # forking a pool here used to *lose* (0.5-0.6x) to per-child
        # start-up costs, and THAT regression is what this guards; a
        # serial-vs-serial rerun lands within a few percent of 1.0 either
        # side on a noisy host, so the floor sits below the noise band
        assert parallel_speedup >= 0.9, (
            f"1-cpu host: 4-worker sweep ran {parallel_speedup:.2f}x serial "
            f"— the executor should have gone serial and reused warm prefixes"
        )
    # between 2 and 3 CPUs a process pool cannot hit the 3x bar by
    # construction; the measurement is recorded in BENCH_engine.json anyway


def test_frontend_slo_bench():
    """Track the front-end's service levels: per-class p99 + availability
    of the crash cell of the SLO grid land in BENCH_engine.json nightly."""
    from repro.fault.runner import ScenarioRunner
    from repro.fault.scenarios import get_scenario

    result = ScenarioRunner(get_scenario("slo-qos-crash")).run(seed=2025)
    per_class = {
        who.split("/")[1]: {
            "p99_ms": stats["p99"] * 1e3,
            "p999_ms": stats["p999"] * 1e3,
            "availability": stats["availability"],
            "goodput": stats["goodput"],
            "error_budget": stats["error_budget"],
        }
        for who, stats in result.slo.items()
    }
    _append_bench(
        {
            "bench": "frontend",
            "timestamp": time.time(),
            "scenario": "slo-qos-crash",
            "digest": result.digest,
            "classes": per_class,
            "retries": result.frontend_stats["retries"],
            "hedges": result.frontend_stats["hedges"],
            "shed": result.frontend_stats["shed"],
        }
    )
    # the availability floor is the scenario's own invariant; here we only
    # pin that the grid served every class and the numbers are sane
    assert set(per_class) == {"gold", "silver", "bronze"}
    for qos, stats in per_class.items():
        assert 0.0 < stats["availability"] <= 1.0, qos
        assert stats["p99_ms"] > 0.0, qos


def test_background_interference_bench():
    """Track the maintenance plane's foreground-protection contract: the
    governor-on run of the bg storm must beat the governor-off control on
    overall foreground p99, with every background stream fully drained in
    both — asserted here and recorded in BENCH_engine.json nightly."""
    from repro.fault.runner import ScenarioRunner
    from repro.fault.scenarios import get_scenario

    results = {
        gov: ScenarioRunner(
            get_scenario(f"bg-rebalance-governor-{gov}")
        ).run(seed=2025)
        for gov in ("off", "on")
    }
    entry = {
        "bench": "background_interference",
        "timestamp": time.time(),
        "scenario_pair": "bg-rebalance-governor-{on,off}",
    }
    for gov, result in results.items():
        entry[gov] = {
            "digest": result.digest,
            "p99_ms": result.slo_overall["p99"] * 1e3,
            "p999_ms": result.slo_overall["p999"] * 1e3,
            "availability": result.slo_overall["availability"],
            "streams": {
                stream: {
                    "granted_bytes": stats["granted_bytes"],
                    "time_to_drain": stats["time_to_drain"],
                    "bandwidth": stats["bandwidth"],
                }
                for stream, stats in result.background.items()
                if stats["submitted_items"]
            },
            "governor": result.governor,
        }
    _append_bench(entry)
    on, off = results["on"], results["off"]
    assert on.slo_overall["p99"] < off.slo_overall["p99"], (
        f"governor failed to protect foreground p99: "
        f"{on.slo_overall['p99'] * 1e3:.3f}ms (on) vs "
        f"{off.slo_overall['p99'] * 1e3:.3f}ms (off)"
    )
    for gov, result in results.items():
        for stream, stats in result.background.items():
            assert stats["backlog_bytes"] == 0, (gov, stream)
