"""Scenario runner: workload trace + fault schedule + invariant oracle.

A :class:`ScenarioSpec` composes a cluster geometry, an update method, a
synthetic workload, a :class:`~repro.fault.events.FaultSchedule`, and a
list of invariant checks.  The spec holds only what some scenario varies:
the trace, client count and heartbeat timing are this module's constants,
and the device, failure-domain shape and front-end hedging / concurrency
are :class:`ClusterConfig`'s and :class:`FrontEnd`'s own defaults.  The
schedule is plain data that the injector only iterates, so one spec can
serve any number of runs.  :class:`ScenarioRunner` executes it:

1. build + populate the cluster (``fill="random"`` so verification is
   byte-strong), start heartbeats if asked, arm the fault injector;
2. replay the trace with failure-tolerant closed-loop clients — ops that
   error on a crashed node are counted, not fatal (degraded service);
3. drain logs, wait for every fault (and its recovery) to settle, drain
   again;
4. run the scenario's invariant checks, the cluster-wide stripe-verify
   oracle, and compute the canonical metric digest.

Runs are seed-deterministic: the same spec + seed yields a byte-identical
digest (asserted by the test suite and checkable via
``python -m repro scenario <name> --seed N``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.background.config import BackgroundConfig
from repro.cluster.config import ClusterConfig
from repro.cluster.ecfs import ECFS
from repro.cluster.heartbeat import HeartbeatService
from repro.common.perf import parked_gc
from repro.common.units import KiB
from repro.fault.digest import cluster_digest
from repro.fault.events import FaultSchedule
from repro.fault.injector import FaultInjector
from repro.harness.runner import resolve_trace
from repro.traces.replayer import TraceReplayer
from repro.traces.synthetic import generate_trace

__all__ = ["ScenarioSpec", "ScenarioResult", "ScenarioRunner"]

Check = Callable[[ECFS, FaultInjector], None]

#: the closed-loop workload every non-front-end scenario replays
TRACE = "tencloud"
N_CLIENTS = 4
#: heartbeat period and silence-to-failure timeout (``heartbeat=True``)
HB_INTERVAL = 0.5
HB_TIMEOUT = 1.6


@dataclass
class ScenarioSpec:
    """Everything needed to run one named failure scenario."""

    name: str
    description: str
    method: str = "tsue"
    n_osds: int = 10
    k: int = 4
    m: int = 2
    block_size: int = 64 * KiB
    log_unit_size: int = 128 * KiB
    n_files: int = 2
    stripes_per_file: int = 2
    #: placement policy (repro.placement)
    placement: str = "rotation"
    n_ops: int = 150
    heartbeat: bool = False
    method_options: dict[str, Any] = field(default_factory=dict)
    #: TenantSpecs (repro.traces.replayer); any tenant selects front-end
    #: mode, see :attr:`frontend`
    tenants: tuple = ()
    #: unified background-work scheduler (repro.background); None keeps the
    #: subsystem disabled (the pre-PR-5 per-stream pacing)
    background: Optional[BackgroundConfig] = None
    #: admission override for frontend runs (e.g. the AIMD adaptive mode)
    admission: Optional[Any] = None
    #: the injector only iterates the schedule, so one serves every run
    faults: FaultSchedule = field(default_factory=FaultSchedule)
    #: invariant checks run after the run settles, before stripe-verify
    checks: list[Check] = field(default_factory=list)

    @property
    def frontend(self) -> bool:
        """Front-end mode: the QoS-aware pipeline (repro.frontend) drives
        per-tenant open-loop arrivals instead of the closed-loop replay; the
        result then carries per-tenant/per-class SLO metrics and a windowed
        availability/latency time series."""
        return bool(self.tenants)

    def cluster_config(self, seed: int) -> ClusterConfig:
        return ClusterConfig(
            n_osds=self.n_osds,
            k=self.k,
            m=self.m,
            block_size=self.block_size,
            log_unit_size=self.log_unit_size,
            placement_policy=self.placement,
            background=self.background or BackgroundConfig(),
            seed=seed,
        )


@dataclass
class ScenarioResult:
    name: str
    seed: int
    digest: str
    ops: int
    updates: int
    reads: int
    failures: int
    sim_time: float
    stripes_verified: int
    fault_log: list[tuple[float, str]]
    recovery_reports: list
    scrub_reports: list
    detected: list[tuple[int, float]]  # heartbeat failure detections
    readmitted: list[tuple[int, float]]  # heartbeat recovery detections
    #: host-side performance (wall seconds, DES events, events/sec) —
    #: excluded from the canonical digest, which must not depend on the
    #: machine the scenario ran on
    wall_seconds: float = 0.0
    events: int = 0
    events_per_sec: float = 0.0
    #: topology-event outcome: rebalance reports, final epoch, and the
    #: collector's moved-bytes/time-to-balanced stats
    rebalance_reports: list = field(default_factory=list)
    epoch: int = 0
    rebalance_stats: dict = field(default_factory=dict)
    #: front-end outcome (``spec.frontend`` runs): per-tenant/class SLO
    #: aggregates, the windowed availability/p99 series, and the pipeline's
    #: shed/retry/hedge accounting — all folded into the canonical digest
    slo: dict = field(default_factory=dict)
    slo_series: dict = field(default_factory=dict)
    slo_overall: dict = field(default_factory=dict)
    frontend_stats: dict = field(default_factory=dict)
    #: unified background scheduler outcome (``spec.background`` runs):
    #: per-stream bandwidth/backlog/time-to-drain + governor accounting,
    #: folded into the canonical digest when the scheduler was enabled
    background: dict = field(default_factory=dict)
    governor: dict = field(default_factory=dict)

    def summary(self) -> str:
        lines = [
            f"scenario {self.name} (seed {self.seed})",
            f"  ops: {self.ops} ({self.updates} updates, {self.reads} reads, "
            f"{self.failures} failed during outages)",
            f"  sim time: {self.sim_time:.3f}s, "
            f"stripes verified: {self.stripes_verified}",
        ]
        for t, text in self.fault_log:
            lines.append(f"  [{t:9.4f}s] {text}")
        for rep in self.recovery_reports:
            lines.append(
                f"  recovery osd{rep.failed_osd}: {rep.blocks_rebuilt} blocks, "
                f"settle {rep.prepare_seconds:.4f}s + rebuild "
                f"{rep.rebuild_seconds:.4f}s, {rep.bandwidth / 1e6:.1f} MB/s"
            )
        for rep in self.scrub_reports:
            lines.append(
                f"  scrub: {rep.stripes_checked} stripes, "
                f"{len(rep.latent_errors)} latent errors, "
                f"{len(rep.repaired)} repaired"
            )
        for rep in self.rebalance_reports:
            lines.append(f"  {rep.summary()}")
        for who, stats in self.slo.items():
            lines.append(
                f"  slo {who}: p50 {stats['p50'] * 1e3:.2f}ms "
                f"p99 {stats['p99'] * 1e3:.2f}ms p999 {stats['p999'] * 1e3:.2f}ms "
                f"avail {stats['availability']:.4f} "
                f"goodput {stats['goodput']:.0f}/s "
                f"budget {stats['error_budget']:.2f} "
                f"(shed {stats['shed']:.0f}, retries {stats['retries']:.0f}, "
                f"hedges {stats['hedges']:.0f})"
            )
        if self.slo_overall:
            stats = self.slo_overall
            lines.append(
                f"  slo overall: p50 {stats['p50'] * 1e3:.2f}ms "
                f"p99 {stats['p99'] * 1e3:.2f}ms p999 {stats['p999'] * 1e3:.2f}ms "
                f"avail {stats['availability']:.4f} "
                f"({stats['served']:.0f} of {stats['submitted']:.0f} served)"
            )
        if self.slo_series.get("t"):
            series = self.slo_series
            lines.append("  window series (availability / p99 per window):")
            lines.append(f"    {'t(s)':>8} {'avail':>7} {'p99(ms)':>9} {'arrivals':>9}")
            for t, avail, p99, n in zip(
                series["t"], series["availability"], series["p99"], series["submitted"]
            ):
                lines.append(f"    {t:8.3f} {avail:7.3f} {p99 * 1e3:9.3f} {n:9.0f}")
        if self.rebalance_reports:
            stats = self.rebalance_stats
            lines.append(
                f"  rebalance totals: {stats.get('moved_bytes', 0) / 1e6:.1f} MB "
                f"moved, time-to-balanced {stats.get('time_to_balanced', 0):.3f}s, "
                f"final epoch {self.epoch}"
            )
        for stream, stats in self.background.items():
            if not stats.get("submitted_items"):
                continue
            lines.append(
                f"  bg {stream}: {stats['granted_bytes'] / 1e6:.2f} MB in "
                f"{stats['granted_items']:.0f} grants, "
                f"{stats['bandwidth'] / 1e6:.1f} MB/s, "
                f"drained in {stats['time_to_drain']:.3f}s "
                f"(backlog {stats['backlog_bytes']:.0f} B)"
            )
        if self.governor.get("samples"):
            lines.append(
                f"  bg governor: {self.governor['breaches']:.0f} breaches, "
                f"min scale {self.governor['min_scale']:.2f}, final "
                f"{self.governor['final_scale']:.2f} over "
                f"{self.governor['samples']:.0f} samples"
            )
        lines.append(f"  digest: {self.digest}")
        return "\n".join(lines)


class ScenarioRunner:
    """Executes a :class:`ScenarioSpec` deterministically."""

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec

    def run(self, seed: int = 2025) -> ScenarioResult:
        # the cyclic GC is parked for the whole timed run (see
        # repro.common.perf): ambient gen-2 passes distort scenario wall
        # clocks the same way they distort run_experiment's
        with parked_gc():
            return self._run(seed)

    def _run(self, seed: int) -> ScenarioResult:
        import time as _time

        wall0 = _time.perf_counter()
        spec = self.spec
        ecfs = ECFS(
            spec.cluster_config(seed),
            method=spec.method,
            method_options=dict(spec.method_options),
        )
        files = ecfs.populate(spec.n_files, spec.stripes_per_file, fill="random")
        heartbeat: Optional[HeartbeatService] = None
        if spec.heartbeat:
            heartbeat = HeartbeatService(ecfs, interval=HB_INTERVAL, timeout=HB_TIMEOUT)
            heartbeat.start()
        injector = FaultInjector(ecfs, spec.faults)
        injector.start()

        file_bytes = ecfs.mds.lookup(files[0]).size
        frontend = None
        if spec.frontend:
            # QoS pipeline + open-loop arrivals: per-tenant Poisson streams
            # submit through admission/retry/hedging; outages surface as
            # retried-or-shed requests, not as a stalled arrival process
            from repro.frontend.dispatcher import FrontEnd
            from repro.traces.replayer import OpenLoopReplayer

            frontend = FrontEnd(ecfs, admission=spec.admission)
            ecfs.frontend = frontend  # visible to the spec's invariant checks
            open_result = OpenLoopReplayer(
                ecfs, frontend, list(spec.tenants), files
            ).run(seed=seed)
            ops_issued = open_result.submitted
            updates = ecfs.metrics.updates.count
            reads = ecfs.metrics.reads.count
            failures = open_result.failed + open_result.deadline_missed
        else:
            trace = generate_trace(
                resolve_trace(TRACE), spec.n_ops, files, file_bytes, seed=seed
            )
            replay = TraceReplayer(ecfs, trace).run(N_CLIENTS, tolerate_failures=True)
            ops_issued = replay.ops_issued
            updates = replay.updates
            reads = replay.reads
            failures = replay.failures

        # settle: flush logs so quiescence predicates can fire, let every
        # fault (and its recovery) run to completion, then flush the
        # replays/repairs the faults produced
        ecfs.drain()
        injector.workload_finished()
        ecfs.env.run(injector.done())
        if frontend is not None:
            # a fault's recovery may have released straggler legs: wait the
            # pipeline fully out before anything is digested
            ecfs.env.run(ecfs.env.process(frontend.quiesce(), name="fe-quiesce2"))
        if heartbeat is not None:
            # grace period: restarted/healed nodes need a beat + a monitor
            # tick to be readmitted
            ecfs.env.run(until=ecfs.env.now + HB_TIMEOUT + 2 * HB_INTERVAL)
            heartbeat.stop()
        ecfs.drain()

        for check in spec.checks:
            check(ecfs, injector)
        stripes = ecfs.verify()

        slo = frontend.slo.summary() if frontend is not None else {}
        slo_series = frontend.slo.series() if frontend is not None else {}
        bg_enabled = ecfs.background.enabled
        bg_stats = ecfs.background.stream_stats() if bg_enabled else {}
        gov_stats = ecfs.background.governor_stats() if bg_enabled else {}
        digest = cluster_digest(ecfs)
        extra: dict = {}
        if frontend is not None:
            # fold the SLO read-out into the canonical digest so the
            # determinism oracle also covers the metrics subsystem itself
            extra["slo"] = slo
            extra["series"] = slo_series
        if bg_enabled:
            # likewise the maintenance plane: per-stream grant accounting
            # and the governor trajectory are digest-covered
            extra["background"] = bg_stats
            extra["governor"] = gov_stats
        if extra:
            import hashlib

            from repro.fault.digest import canonical

            extra["cluster"] = digest
            digest = hashlib.sha256(canonical(extra).encode()).hexdigest()

        wall = _time.perf_counter() - wall0
        return ScenarioResult(
            name=spec.name,
            seed=seed,
            digest=digest,
            ops=ops_issued,
            updates=updates,
            reads=reads,
            failures=failures,
            sim_time=ecfs.env.now,
            stripes_verified=stripes,
            fault_log=list(injector.log),
            recovery_reports=list(injector.recovery_reports),
            scrub_reports=list(injector.scrub_reports),
            detected=list(heartbeat.detected) if heartbeat else [],
            readmitted=list(heartbeat.recovered) if heartbeat else [],
            wall_seconds=wall,
            events=ecfs.env.steps,
            events_per_sec=ecfs.env.steps / wall if wall > 0 else 0.0,
            rebalance_reports=list(injector.rebalance_reports),
            epoch=ecfs.placement.epoch,
            rebalance_stats=ecfs.metrics.rebalance_stats(),
            slo=slo,
            slo_series=slo_series,
            slo_overall=frontend.slo.overall() if frontend is not None else {},
            frontend_stats=frontend.stats() if frontend is not None else {},
            background=bg_stats,
            governor=gov_stats,
        )
