"""Shared experiment runner: build cluster, replay trace, collect results."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.cluster.config import ClusterConfig
from repro.cluster.ecfs import ECFS
from repro.common.perf import host_usage, parked_gc, rss_mb
from repro.common.units import KiB, MiB
from repro.metrics.workload import WorkloadReport, aggregate_workload
from repro.net.fabric import NetParams
from repro.traces.alicloud import alicloud_spec
from repro.traces.msr import msr_spec
from repro.traces.replayer import TraceReplayer
from repro.traces.synthetic import SyntheticTraceSpec, generate_trace
from repro.traces.tencloud import tencloud_spec

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "current_scale",
    "run_experiment",
    "resolve_trace",
]

#: one-way latency of the paper's cloud testbed (virtualized 25 Gb/s
#: Ethernet on Chameleon — VM-to-VM latency is north of 100 us, which is
#: what makes PARIX's serial second hop "particularly detrimental in a
#: 25Gb/s cloud environment", §5.2)
CLOUD_LATENCY = 120e-6


def current_scale() -> str:
    scale = os.environ.get("REPRO_SCALE", "quick")
    if scale not in ("quick", "full"):
        raise ValueError(f"REPRO_SCALE must be quick|full, got {scale!r}")
    return scale


def resolve_trace(name: str) -> SyntheticTraceSpec:
    """Trace spec by harness name: alicloud, tencloud, tencloud-writeonly,
    or msr-<volume>."""
    if name == "alicloud":
        return alicloud_spec()
    if name == "tencloud":
        return tencloud_spec()
    if name == "tencloud-writeonly":
        # tencloud's size/locality fingerprint at update_ratio=1.0: the
        # steady-state write microbench (every op enters the update path)
        import dataclasses

        return dataclasses.replace(
            tencloud_spec(), name="tencloud-writeonly", update_ratio=1.0
        )
    if name.startswith("msr-"):
        return msr_spec(name[4:])
    raise KeyError(f"unknown trace {name!r}")


@dataclass
class ExperimentConfig:
    """Everything needed to run one cell of a paper table/figure."""

    method: str = "tsue"
    trace: str = "tencloud"
    k: int = 6
    m: int = 4
    n_clients: int = 16
    n_ops: int = 2000
    device: str = "ssd"
    n_osds: int = 16
    block_size: int = 256 * KiB
    log_unit_size: int = 1 * MiB
    log_max_units: int = 4
    log_pools: int = 4
    n_files: int = 6
    stripes_per_file: int = 8
    #: restrict the trace to the first N files (None = all): models a
    #: cluster whose capacity is mostly cold while updates hammer hot files
    hot_files: Optional[int] = None
    net_latency: float = CLOUD_LATENCY
    seed: int = 2025
    duration: Optional[float] = None
    verify: bool = False
    #: drain logs after replay (Table 1 accounting); recovery experiments
    #: set False — the paper fails the node with logs outstanding
    drain: bool = True
    method_options: dict[str, Any] = field(default_factory=dict)

    def cluster_config(self) -> ClusterConfig:
        return ClusterConfig(
            n_osds=self.n_osds,
            k=self.k,
            m=self.m,
            block_size=self.block_size,
            device=self.device,
            log_unit_size=self.log_unit_size,
            log_max_units=self.log_max_units,
            log_pools=self.log_pools,
            seed=self.seed,
        )


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    iops: float
    update_iops: float
    latency: dict[str, float]
    workload: WorkloadReport
    elapsed_sim: float
    memory_bytes: int
    extra: dict[str, Any] = field(default_factory=dict)
    ecfs: Optional[ECFS] = None
    #: host-side performance of the run (wall seconds, simulated seconds,
    #: DES events, events/sec).  Excluded from the canonical digest — two
    #: identical simulations on different hardware agree on everything
    #: except this dict.
    perf: dict[str, float] = field(default_factory=dict)


def run_experiment(cfg: ExperimentConfig, keep_cluster: bool = False) -> ExperimentResult:
    """Build, populate, replay, (optionally) drain+verify, measure.

    The whole timed section runs with the cyclic GC parked
    (:func:`repro.common.perf.parked_gc`): ambient gen-2 passes scale with
    whatever earlier work left alive in the process and can multiply the
    wall clock several-fold, corrupting the recorded ``perf`` numbers.
    """
    with parked_gc():
        return _run_experiment(cfg, keep_cluster)


def _run_experiment(cfg: ExperimentConfig, keep_cluster: bool) -> ExperimentResult:
    wall0 = time.perf_counter()
    sys0, faults0 = host_usage()
    ecfs = ECFS(
        cfg.cluster_config(),
        method=cfg.method,
        net_params=NetParams(latency=cfg.net_latency),
        method_options=cfg.method_options,
    )
    files = ecfs.populate(
        cfg.n_files,
        cfg.stripes_per_file,
        fill="random" if cfg.verify else "zeros",
    )
    file_bytes = ecfs.mds.lookup(files[0]).size
    spec = resolve_trace(cfg.trace)
    targets = files[: cfg.hot_files] if cfg.hot_files else files
    trace = generate_trace(spec, cfg.n_ops, targets, file_bytes, seed=cfg.seed)
    replay = TraceReplayer(ecfs, trace).run(cfg.n_clients, duration=cfg.duration)
    # per-phase split: everything up to here (build+populate+replay) vs the
    # drain/verify tail — the phase the bulk plane targets
    replay_wall = time.perf_counter() - wall0
    replay_events = ecfs.env.steps
    # Drain outstanding logs before accounting: the paper's workload numbers
    # (Table 1) include each method's recycle I/O.  Replay IOPS/latency were
    # already captured, so the drain does not distort throughput numbers.
    if cfg.drain:
        ecfs.drain()
    if cfg.verify:
        ecfs.drain()
        ecfs.verify()
    workload = aggregate_workload(ecfs.osds, ecfs.net)
    wall = time.perf_counter() - wall0
    events = ecfs.env.steps
    drain_wall = wall - replay_wall
    drain_events = events - replay_events
    sys1, faults1 = host_usage()
    result = ExperimentResult(
        config=cfg,
        iops=replay.iops,
        update_iops=ecfs.metrics.aggregate_iops("updates"),
        latency=ecfs.metrics.latency_stats("updates"),
        workload=workload,
        elapsed_sim=replay.elapsed,
        memory_bytes=ecfs.method_memory(),
        ecfs=ecfs if keep_cluster else None,
        perf={
            "wall_seconds": wall,
            "sim_seconds": ecfs.env.now,
            "events": float(events),
            "events_per_sec": events / wall if wall > 0 else 0.0,
            # simulated ops per host second: the metric that stays honest
            # when an optimization REMOVES events (events/sec rewards doing
            # the same work with more scaffolding; ops/sec does not)
            "sim_ops_per_sec": cfg.n_ops / wall if wall > 0 else 0.0,
            # per-phase split: replay = build+populate+replay, drain = the
            # drain/verify tail (zero when cfg.drain and cfg.verify are off)
            "replay_wall_seconds": replay_wall,
            "replay_events": float(replay_events),
            "replay_us_per_event": (
                replay_wall * 1e6 / replay_events if replay_events else 0.0
            ),
            "drain_wall_seconds": drain_wall,
            "drain_events": float(drain_events),
            "drain_us_per_event": (
                drain_wall * 1e6 / drain_events if drain_events else 0.0
            ),
            # memory plane: kernel time and page faults the run cost, and
            # what is resident with the cluster still alive
            "sys_seconds": sys1 - sys0,
            "minor_faults": float(faults1 - faults0),
            "rss_mb_end": rss_mb(),
        },
    )
    if hasattr(ecfs.method, "stall_stats"):
        result.extra["stalls"] = ecfs.method.stall_stats()
    if hasattr(ecfs.method, "peak_memory_bytes"):
        result.extra["peak_memory_bytes"] = ecfs.method.peak_memory_bytes()
    return result
