"""Fig. 8 — HDD cluster: (a) update throughput, (b) recovery bandwidth.

MSR Cambridge volume twins under RS(6,4) on a 16-node HDD cluster.  TSUE
runs its HDD variant (no DeltaLog, 3-copy DataLog, 1 pool/disk).  For (b)
a node is failed right after the update phase (logs NOT drained — that is
the point) and one-node recovery bandwidth is measured.
"""

from __future__ import annotations

from repro.cluster.recovery import RecoveryManager
from repro.harness.runner import ExperimentConfig, current_scale, run_experiment
from repro.harness.sweep import run_grid
from repro.metrics.tables import format_table
from repro.update.tsue import TSUEOptions

__all__ = ["METHODS", "VOLUMES", "run_fig8a", "run_fig8b"]

METHODS = ("fo", "pl", "plr", "parix", "tsue")
VOLUMES = ("src10", "src22", "proj2", "prn1", "hm0", "usr0", "mds0")


def _config(method: str, volume: str, n_ops: int) -> ExperimentConfig:
    options = {}
    if method == "tsue":
        options = {"options": TSUEOptions.hdd()}
    return ExperimentConfig(
        method=method,
        trace=f"msr-{volume}",
        k=6,
        m=4,
        n_clients=16,
        n_ops=n_ops,
        device="hdd",
        net_latency=20e-6,  # 40 Gb/s InfiniBand: lower latency than the cloud
        # a mostly-cold capacity with hot update targets: recovery rebuilds
        # every block the victim hosted (as a real 2 TB disk would), while
        # the update stream concentrates on a few files
        n_files=10,
        stripes_per_file=12,
        hot_files=2,
        method_options=options,
    )


def run_fig8a() -> tuple[str, dict]:
    quick = current_scale() == "quick"
    volumes = ("src10", "hm0") if quick else VOLUMES
    n_ops = 600 if quick else 3000
    grid = run_grid(
        [
            ((volume, method.upper()), _config(method, volume, n_ops))
            for volume in volumes
            for method in METHODS
        ]
    )
    rows = {
        volume: {method: res.iops for method, res in cols.items()}
        for volume, cols in grid.items()
    }
    text = format_table(
        rows, title="Fig.8a — HDD update throughput (IOPS)", floatfmt="{:,.0f}"
    )
    return text, rows


def run_fig8b() -> tuple[str, dict]:
    quick = current_scale() == "quick"
    volumes = ("src10",) if quick else VOLUMES
    n_ops = 1000 if quick else 3000
    rows: dict[str, dict[str, float]] = {}
    for volume in volumes:
        row: dict[str, float] = {}
        for method in METHODS:
            cfg = _config(method, volume, n_ops)
            cfg.drain = False  # the paper recovers with logs outstanding
            res = run_experiment(cfg, keep_cluster=True)
            ecfs = res.ecfs
            manager = RecoveryManager(ecfs)
            report = ecfs.env.run(
                ecfs.env.process(manager.fail_and_recover(0), name="fig8b-recovery")
            )
            row[method.upper()] = report.bandwidth / 1e6  # MB/s
        rows[volume] = row
    text = format_table(
        rows,
        title="Fig.8b — recovery bandwidth after updates (MB/s)",
        floatfmt="{:,.1f}",
    )
    return text, rows
