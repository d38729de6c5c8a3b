"""Fig. 6 — TSUE log-pool analysis.

(a) recycle overhead: update IOPS over time for small vs adequate unit
    quotas — a 2-unit quota makes appends stall behind recycling;
(b) memory usage: IOPS and peak memory consumption against the per-pool
    unit quota (2..20).
"""

from __future__ import annotations

from repro.harness.runner import ExperimentConfig, current_scale, run_experiment
from repro.harness.sweep import run_cells
from repro.metrics.tables import format_series, format_table

__all__ = ["run_fig6a", "run_fig6b"]

#: per-node memory of the paper's testbed (256 GB), for the memory-% column
NODE_MEMORY = 256e9


def run_fig6a() -> tuple[str, dict]:
    scale = current_scale()
    n_ops = 2500 if scale == "quick" else 10000
    out: dict[str, dict] = {}
    texts = []
    for max_units in (2, 4):
        # small units + a single pool per device so the unit quota is the
        # binding constraint, as in the paper's 16 MiB-unit full-scale runs
        cfg = ExperimentConfig(
            method="tsue",
            trace="tencloud",
            k=6,
            m=4,
            n_clients=64,
            n_ops=n_ops,
            log_unit_size=128 * 1024,
            log_pools=1,
            log_max_units=max_units,
        )
        res = run_experiment(cfg, keep_cluster=True)
        centers, iops = res.ecfs.metrics.iops_series(
            window=max(res.elapsed_sim / 10.0, 1e-4), kind="updates"
        )
        stalls = res.extra.get("stalls", {})
        out[f"quota={max_units}"] = {
            "iops": res.iops,
            "series_t": centers.tolist(),
            "series_iops": iops.tolist(),
            "stalls": stalls.get("stalls", 0.0),
            "stall_time": stalls.get("stall_time", 0.0),
        }
        texts.append(
            format_series(
                centers,
                iops,
                "time (s)",
                "IOPS",
                title=f"Fig.6a — TSUE update IOPS over time, quota={max_units} "
                f"(total {res.iops:,.0f} IOPS, {stalls.get('stalls', 0):.0f} stalls)",
            )
        )
    return "\n\n".join(texts), out


def run_fig6b() -> tuple[str, dict]:
    scale = current_scale()
    quotas = (2, 4, 8) if scale == "quick" else (2, 4, 6, 8, 12, 16, 20)
    # long enough that every quota reaches backend steady state (otherwise
    # a large quota just absorbs the whole finite run in buffers)
    n_ops = 6000 if scale == "quick" else 20000
    cfgs = [
        # same pressure configuration as fig6a so the quota is binding
        ExperimentConfig(
            method="tsue",
            trace="tencloud",
            k=6,
            m=4,
            n_clients=64,
            n_ops=n_ops,
            log_unit_size=128 * 1024,
            log_pools=1,
            log_max_units=q,
        )
        for q in quotas
    ]
    results = run_cells(cfgs)
    rows: dict[str, dict[str, float]] = {}
    for q, cfg, res in zip(quotas, cfgs, results):
        peak = res.extra.get("peak_memory_bytes", 0)
        rows[f"{q} units"] = {
            "IOPS": res.iops,
            "peak mem (MiB/node)": peak / (1 << 20) / cfg.n_osds,
            "mem % of node": 100.0 * peak / cfg.n_osds / NODE_MEMORY,
        }
    text = format_table(
        rows, title="Fig.6b — IOPS and memory vs log-unit quota", floatfmt="{:,.2f}"
    )
    return text, rows
