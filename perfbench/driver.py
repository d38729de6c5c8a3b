"""Workload definitions and the outside-in driver.

The driver mirrors ``repro.harness.runner._run_experiment`` call for call —
``ECFS(...)``, ``ECFS.populate``, ``generate_trace``, ``TraceReplayer.run``,
``ECFS.drain``, ``ECFS.verify``, ``aggregate_workload``, ``cluster_digest``
— and brackets each call with ``perf_counter_ns`` from here, so no file
under ``src/`` knows it is being measured.  Scenario members go through
``ScenarioRunner.run``; their cluster is read back through a capturing
callable appended to the spec's public ``checks`` list.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.cluster.ecfs import ECFS
from repro.common.perf import parked_gc
from repro.fault import ScenarioRunner, cluster_digest, get_scenario
from repro.harness.prefix import clear_prefix_caches
from repro.harness.runner import ExperimentConfig, resolve_trace
from repro.metrics.workload import aggregate_workload
from repro.net.fabric import NetParams
from repro.traces.alicloud import alicloud_spec
from repro.traces.replayer import TraceReplayer
from repro.traces.synthetic import SyntheticTraceSpec, generate_trace

GIB = float(2**30)
BASELINE_METHODS = ("fo", "fl", "pl", "plr", "parix", "cord")
TSUE_LAYERS = ("datalog", "deltalog", "paritylog")

#: The scenario members of ``scenario_registry``, fixed by name: scenarios
#: added to ``repro.fault.SCENARIOS`` later do not join the workload.
#: ``bg-rebalance-governor-off`` (the ungoverned control of ``-governor-on``,
#: same geometry and storm) is left out: a cycle over all 22 takes ~10.5 s on
#: the reference host and three timed cycles would not fit the time cap.
SCENARIO_NAMES = (
    "crash-mid-update",
    "double-failure",
    "crash-during-recycle",
    "rolling-restart",
    "partition-heal",
    "scrub-repair",
    "slow-disk",
    "topo-join-crush",
    "topo-join-rotation",
    "topo-crash-mid-rebalance",
    "topo-decommission-crush",
    "topo-weight-crush",
    "slo-steady",
    "slo-qos-crash",
    "slo-qos-partition",
    "slo-qos-rebalance",
    "slo-adaptive-brownout",
    "bg-scrub-under-load",
    "bg-recycle-vs-recovery",
    "bg-storm-crash-recovery",
    "bg-rebalance-governor-on",
)
#: The authored scenarios hold their invariants on most seeds, not all: of
#: seeds 1..44, ``rolling-restart`` never settles on 10, 24 and 44 and an
#: ``slo-*`` expectation fails on 22 and 41-43.  A benchmark workload may
#: not fail, so scenario members take their seed from this pool of 32 seeds
#: on which every member passed, indexed by ``--seed`` (experiment members
#: use ``--seed`` itself).
SCENARIO_SEEDS = (
    *range(1, 10), *range(11, 22), 23, *range(25, 36),
)
#: one member per family at ``--smoke`` sizes (the 1 MiB-block bg-* runs
#: take seconds each and stay out of the test tier)
SMOKE_SCENARIOS = (
    "crash-mid-update",
    "topo-join-crush",
    "slo-qos-crash",
    "bg-scrub-under-load",
)
SPEC_BUILDS = 9
#: scenario-name prefix -> the per-layer metric its host wall is summed into
SCENARIO_FAMILIES = {
    "topo-": "placement.topo_family_host_s",
    "slo-": "frontend.slo_family_host_s",
    "bg-": "background.bg_family_host_s",
    "": "fault.crash_family_host_s",
}
#: phase bracket -> per-layer metric name
PHASE_METRICS = {
    "build": "cluster.build_s",
    "populate": "cluster.populate_s",
    "generate": "traces.generate_s",
    "replay": "traces.replay_s",
    "drain": "cluster.drain_s",
    "verify": "cluster.verify_s",
    "aggregate": "metrics.aggregate_s",
    "digest": "fault.digest_s",
}
SETUP_PHASES = ("spec", "build", "populate", "generate")
RUN_PHASES = ("replay", "drain", "verify", "aggregate")


@dataclass(frozen=True)
class Member:
    """One simulation inside a workload repeat: an experiment (``cfg``,
    optionally with a trace ``spec`` the harness has no name for) or a named
    fault scenario."""

    label: str
    cfg: Optional[ExperimentConfig] = None
    spec: Optional[SyntheticTraceSpec] = None
    scenario: Optional[str] = None


def _tsue_mixed_ten(smoke: bool) -> list[Member]:
    return [Member("tsue", ExperimentConfig(n_ops=300 if smoke else 10_000))]


def _tsue_write_ali_verify(smoke: bool) -> list[Member]:
    spec = dataclasses.replace(
        alicloud_spec(), name="alicloud-writeonly", update_ratio=1.0
    )
    cfg = ExperimentConfig(trace="alicloud", n_ops=4_000, verify=True)
    if smoke:
        cfg = dataclasses.replace(cfg, n_ops=200, n_files=2, stripes_per_file=2)
    return [Member("tsue", cfg, spec=spec)]


def _methods_ten(smoke: bool) -> list[Member]:
    n_ops = 100 if smoke else 1_200
    return [
        Member(m, ExperimentConfig(method=m, n_ops=n_ops))
        for m in BASELINE_METHODS
    ]


def _wide_1000osd(smoke: bool) -> list[Member]:
    cfg = ExperimentConfig(
        n_osds=120 if smoke else 1000,
        n_files=32,
        stripes_per_file=4,
        n_ops=100 if smoke else 1_200,
    )
    return [Member("tsue", cfg)]


def _scenario_registry(smoke: bool) -> list[Member]:
    names = SMOKE_SCENARIOS if smoke else SCENARIO_NAMES
    return [Member(name, scenario=name) for name in names]


#: name -> members(smoke).  Why each workload exists is in BENCHMARK.json and
#: perfbench/README.md.
WORKLOADS: dict[str, Callable[[bool], list[Member]]] = {
    "tsue_mixed_ten": _tsue_mixed_ten,
    "tsue_write_ali_verify": _tsue_write_ali_verify,
    "methods_ten": _methods_ten,
    "wide_1000osd": _wide_1000osd,
    "scenario_registry": _scenario_registry,
}


@dataclass
class MemberRun:
    """What one member run produced: host phase walls, the digest, additive
    simulated counters, and the few statistics that do not add."""

    label: str
    digest: str = ""
    error: str = ""  # verify / invariant failure: every op counts as failed
    family: str = ""  # scenario members: the family metric their wall joins
    phases: dict[str, float] = field(default_factory=dict)  # host seconds
    sums: dict[str, float] = field(default_factory=dict)
    latencies: list = field(default_factory=list)  # simulated update seconds
    residence_us: dict[str, float] = field(default_factory=dict)
    availability: Optional[float] = None
    peak_log_memory: float = 0.0

    @property
    def setup_s(self) -> float:
        return sum(self.phases.get(p, 0.0) for p in SETUP_PHASES)

    @property
    def run_s(self) -> float:
        return sum(self.phases.get(p, 0.0) for p in RUN_PHASES)


class _Brackets:
    """``perf_counter_ns`` brackets around the driver's own calls."""

    def __init__(self) -> None:
        self.phases: dict[str, float] = {}
        self._t = time.perf_counter_ns()

    def skip(self) -> None:
        """Restart the clock: what ran since the last mark is the driver's
        own bookkeeping and belongs to no phase."""
        self._t = time.perf_counter_ns()

    def mark(self, phase: str) -> None:
        now = time.perf_counter_ns()
        self.phases[phase] = self.phases.get(phase, 0.0) + (now - self._t) / 1e9
        self._t = now


def _cluster_sums(ecfs: ECFS) -> dict[str, float]:
    """Additive simulated counters read from public stat surfaces."""
    updates = ecfs.metrics.updates
    workload = aggregate_workload(ecfs.osds, ecfs.net)
    sums = {
        "updates": updates.count,
        "update_bytes": updates.bytes,
        "update_span_s": updates.times[-1] - updates.times[0] if updates.count > 1 else 0.0,
        "net_bytes": workload.network_bytes,
        "erases": workload.total_erases,
        "page_programs": workload.page_programs,
        "seq_ops": workload.seq_ops,
        "rand_ops": workload.rand_ops,
        "events": ecfs.env.steps,
        "osd_span_s": len(ecfs.osds) * ecfs.env.now,
        "oracle_applied": ecfs.oracle.applied_updates,
        "moved_bytes": ecfs.metrics.rebalance.bytes,
    }
    for key in ("reads", "writes", "write_bytes", "overwrites", "bg_ops", "busy_time"):
        sums["dev_" + key] = sum(getattr(o.device.counters, key) for o in ecfs.osds)
    if ecfs.schedules is not None:
        sums["sched_attempts"] = ecfs.schedules.attempts
        sums["sched_hits"] = ecfs.schedules.hits
    if ecfs.bulk is not None:
        sums["bulk_consumed"] = ecfs.bulk.stats()["consumed"]
    planner = getattr(ecfs.method, "planner", None)
    if planner is not None:
        sums["raw_records"] = planner.raw_records
        sums["planned_extents"] = planner.planned_extents
    if hasattr(ecfs.method, "stall_stats"):
        sums["stall_s"] = ecfs.method.stall_stats()["stall_time"]
    if ecfs.background.enabled:
        streams = ecfs.background.stream_stats().values()
        sums["bg_granted_bytes"] = sum(s["granted_bytes"] for s in streams)
        sums["gov_breaches"] = ecfs.background.governor_stats()["breaches"]
    return sums


def _read_cluster(run: MemberRun, ecfs: ECFS) -> None:
    run.sums.update(_cluster_sums(ecfs))
    run.latencies = ecfs.metrics.updates.latencies
    method = ecfs.method
    if hasattr(method, "residence_stats"):
        run.residence_us = {
            layer: 1e6 * sum(stats.values())
            for layer, stats in method.residence_stats().items()
        }
    if hasattr(method, "peak_memory_bytes"):
        run.peak_log_memory = float(method.peak_memory_bytes())


def run_experiment_member(member: Member, seed: int) -> MemberRun:
    cfg = dataclasses.replace(member.cfg, seed=seed)
    run = MemberRun(member.label)
    with parked_gc():
        t = _Brackets()
        ecfs = ECFS(
            cfg.cluster_config(),
            method=cfg.method,
            net_params=NetParams(latency=cfg.net_latency),
            method_options=cfg.method_options,
        )
        t.mark("build")
        files = ecfs.populate(
            cfg.n_files, cfg.stripes_per_file, fill="random" if cfg.verify else "zeros"
        )
        t.mark("populate")
        file_bytes = ecfs.mds.lookup(files[0]).size
        spec = member.spec or resolve_trace(cfg.trace)
        targets = files[: cfg.hot_files] if cfg.hot_files else files
        trace = generate_trace(spec, cfg.n_ops, targets, file_bytes, seed=cfg.seed)
        t.mark("generate")
        replay = TraceReplayer(ecfs, trace).run(cfg.n_clients, duration=cfg.duration)
        t.mark("replay")
        run.sums["log_debt_replay_end"] = ecfs.total_log_debt()
        t.skip()
        if cfg.drain:
            ecfs.drain()
        t.mark("drain")
        if cfg.verify:
            ecfs.drain()
            try:
                run.sums["stripes_verified"] = ecfs.verify()
            except Exception as exc:  # IntegrityError; anything else is as fatal
                run.error = f"{type(exc).__name__}: {exc}"
        t.mark("verify")
        aggregate_workload(ecfs.osds, ecfs.net)
        t.mark("aggregate")
        run.digest = cluster_digest(ecfs)
        t.mark("digest")
    run.phases = t.phases
    run.sums["ops"] = replay.ops_issued
    run.sums["ops_failed"] = replay.ops_issued if run.error else replay.failures
    _read_cluster(run, ecfs)
    return run


def run_scenario_member(member: Member, seed: int) -> MemberRun:
    prefix = next(p for p in SCENARIO_FAMILIES if member.label.startswith(p))
    run = MemberRun(member.label, family=SCENARIO_FAMILIES[prefix])
    # a spec build is the only set-up that can be timed from outside, and it
    # takes ~5 us (25 us on caches left cold by the previous member's run):
    # one timing is mostly noise, so time several and keep the median
    builds = []
    for _ in range(SPEC_BUILDS):
        t0 = time.perf_counter_ns()
        spec = get_scenario(member.scenario)
        builds.append(time.perf_counter_ns() - t0)
    t = _Brackets()
    t.phases["spec"] = statistics.median(builds) / 1e9
    captured: list = []
    spec.checks.append(lambda ecfs, injector: captured.append(ecfs))
    nominal_ops = sum(ten.n_ops for ten in spec.tenants) if spec.frontend else spec.n_ops
    t.skip()
    seed = SCENARIO_SEEDS[seed % len(SCENARIO_SEEDS)]
    try:
        result = ScenarioRunner(spec).run(seed)
    except Exception as exc:  # IntegrityError / a scenario invariant
        t.mark("replay")
        run.phases = t.phases
        run.error = f"{type(exc).__name__}: {exc}"
        run.sums.update(ops=nominal_ops, ops_failed=nominal_ops)
        return run
    # the runner's build, replay, drain, settle and verify are one call from
    # outside: all of it is the member's run wall
    t.mark("replay")
    run.phases = t.phases
    run.digest = result.digest
    _read_cluster(run, captured[0])
    fe = result.frontend_stats
    failed = result.ops - fe["ok"] if fe else result.failures
    run.sums.update(
        ops=result.ops,
        ops_failed=failed,
        stripes_verified=result.stripes_verified,
        blocks_rebuilt=sum(r.blocks_rebuilt for r in result.recovery_reports),
        fault_injected=len(result.fault_log),
        shed=fe.get("shed", 0.0),
        retries=fe.get("retries", 0.0),
        hedges=fe.get("hedges", 0.0),
    )
    if result.slo_overall:
        run.availability = result.slo_overall["availability"]
    return run


def run_member(member: Member, seed: int) -> MemberRun:
    if member.scenario is not None:
        return run_scenario_member(member, seed)
    return run_experiment_member(member, seed)


@dataclass
class Repeat:
    """One pass over a workload's members, with process-wide walls."""

    runs: list[MemberRun]
    wall_s: float
    cpu_s: float

    @property
    def cpu_share(self) -> float:
        return self.cpu_s / self.wall_s if self.wall_s > 0 else 0.0

    def total(self, key: str) -> float:
        return sum(r.sums.get(key, 0.0) for r in self.runs)

    def phase(self, name: str) -> float:
        return sum(r.phases.get(name, 0.0) for r in self.runs)

    @property
    def setup_s(self) -> float:
        return sum(r.setup_s for r in self.runs)

    @property
    def run_s(self) -> float:
        return sum(r.run_s for r in self.runs)

    @property
    def digest(self) -> str:
        """One digest over every member's, in member order."""
        joined = "|".join(f"{r.label}={r.digest}" for r in self.runs)
        return hashlib.sha256(joined.encode()).hexdigest()

    @property
    def errors(self) -> list[str]:
        return [f"{r.label}: {r.error}" for r in self.runs if r.error]

    @functools.cached_property
    def latencies_us(self) -> np.ndarray:
        """Every member's raw simulated update latencies, pooled and sorted."""
        pooled = np.concatenate([np.asarray(r.latencies, dtype=float) for r in self.runs])
        return np.sort(pooled) * 1e6


def run_repeat(workload: str, seed: int, smoke: bool = False) -> Repeat:
    """Run every member of the named workload once.  The prefix memos are cleared first so each
    repeat pays its own set-up (scenario members populate through them)."""
    clear_prefix_caches()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    runs = [run_member(m, seed) for m in WORKLOADS[workload](smoke)]
    return Repeat(runs, time.perf_counter() - wall0, time.process_time() - cpu0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def simulated_end_to_end(rep: Repeat) -> dict[str, float]:
    """The simulated end-to-end statistics: they repeat exactly for a seed.
    Pooled workloads sum bytes and ops and pool the raw latency samples."""
    latencies = rep.latencies_us
    update_bytes = rep.total("update_bytes")
    return {
        "sim_update_iops": _ratio(rep.total("updates"), rep.total("update_span_s")),
        # mean of the fastest 95 %: a percentile reads the same on every seed
        # (69 % of Ten-Cloud updates are 4 KiB and take the same uncontended
        # 381 us) and the plain mean of a fault run is the handful of ops
        # that waited out an outage
        "sim_update_tmean95_us": float(latencies[: int(0.95 * len(latencies))].mean()),
        "dev_write_amp": _ratio(rep.total("dev_write_bytes"), update_bytes),
        "net_amp": _ratio(rep.total("net_bytes"), update_bytes),
        "ssd_erases_per_gib": _ratio(rep.total("erases"), update_bytes / GIB),
        "sim_ops_ok_share": 1.0 - _ratio(rep.total("ops_failed"), rep.total("ops")),
    }


def host_end_to_end(rep: Repeat) -> dict[str, float]:
    return {
        "sim_ops_per_host_s": _ratio(rep.total("ops"), rep.run_s),
        "setup_s": rep.setup_s,
    }


def simulated_counts(rep: Repeat) -> dict[str, float]:
    """Per-layer counts read after the run; they repeat exactly for a seed.
    A count whose layer did not run on the workload reads 0."""
    events, ops = rep.total("events"), rep.total("ops")
    latencies = rep.latencies_us
    dev_ops = rep.total("dev_reads") + rep.total("dev_writes")
    out = {
        "sim.events": events,
        "sim.events_per_op": _ratio(events, ops),
        "sim.schedule_hit_rate": _ratio(rep.total("sched_hits"), rep.total("sched_attempts")),
        "sim.bulk_consumed": rep.total("bulk_consumed"),
        "net.bytes": rep.total("net_bytes"),
        "storage.dev_reads": rep.total("dev_reads"),
        "storage.dev_writes": rep.total("dev_writes"),
        "storage.dev_overwrites": rep.total("dev_overwrites"),
        "storage.dev_seq_share": _ratio(
            rep.total("seq_ops"), rep.total("seq_ops") + rep.total("rand_ops")
        ),
        "storage.dev_bg_share": _ratio(rep.total("dev_bg_ops"), dev_ops),
        "storage.dev_busy_share": _ratio(rep.total("dev_busy_time"), rep.total("osd_span_s")),
        "storage.page_programs": rep.total("page_programs"),
        "storage.erases": rep.total("erases"),
        "core.merge_ratio": _ratio(
            rep.total("raw_records") - rep.total("planned_extents"),
            rep.total("raw_records"),
        ),
        "core.log_debt_at_replay_end_bytes": rep.total("log_debt_replay_end"),
        "update.sim_mean_us": float(latencies.mean()),
        "update.sim_p99_us": float(np.percentile(latencies, 99)),
        "update.stall_s": rep.total("stall_s"),
        "update.peak_log_memory_bytes": max(r.peak_log_memory for r in rep.runs),
        "cluster.oracle_applied_updates": rep.total("oracle_applied"),
        "cluster.stripes_verified": rep.total("stripes_verified"),
        "cluster.recovery_blocks_rebuilt": rep.total("blocks_rebuilt"),
        "frontend.shed": rep.total("shed"),
        "frontend.retries": rep.total("retries"),
        "frontend.hedges": rep.total("hedges"),
        "frontend.availability_min": min(
            (r.availability for r in rep.runs if r.availability is not None),
            default=0.0,
        ),
        "fault.injected": rep.total("fault_injected"),
        "placement.moved_bytes": rep.total("moved_bytes"),
        "background.granted_bytes": rep.total("bg_granted_bytes"),
        "background.governor_breaches": rep.total("gov_breaches"),
    }
    for layer in TSUE_LAYERS:
        values = [r.residence_us[layer] for r in rep.runs if layer in r.residence_us]
        out[f"update.residence_{layer}_us"] = float(np.mean(values)) if values else 0.0
    by_label = {r.label: r for r in rep.runs}
    for m in BASELINE_METHODS:
        r = by_label.get(m)
        out[f"update.{m}.sim_update_iops"] = (
            _ratio(r.sums["updates"], r.sums["update_span_s"]) if r else 0.0
        )
    return out


def host_phases(rep: Repeat) -> dict[str, float]:
    """Per-layer host walls from the phase brackets (they vary run to run)."""
    out = {metric: rep.phase(phase) for phase, metric in PHASE_METRICS.items()}
    out["sim.host_us_per_event"] = _ratio(
        1e6 * (rep.phase("replay") + rep.phase("drain")), rep.total("events")
    )
    for metric in SCENARIO_FAMILIES.values():
        out[metric] = 0.0
    for r in rep.runs:
        if r.family:
            out[r.family] += r.run_s
    by_label = {r.label: r for r in rep.runs}
    for m in BASELINE_METHODS:
        r = by_label.get(m)
        out[f"update.{m}.host_s"] = r.run_s if r else 0.0
    return out
