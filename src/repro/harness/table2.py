"""Table 2 — time updated data resides in memory, per log layer.

Replays Ali-Cloud and Ten-Cloud twins under RS(12,4) with TSUE and reports
mean APPEND / BUFFER / RECYCLE time per layer (microseconds) plus the total
residence (first append to final parity merge).
"""

from __future__ import annotations

from repro.harness.runner import ExperimentConfig, current_scale, run_experiment
from repro.metrics.tables import format_table

__all__ = ["run"]


def run() -> tuple[str, dict]:
    n_ops = 1500 if current_scale() == "quick" else 8000
    rows: dict[str, dict[str, float]] = {}
    raw: dict[str, dict] = {}
    for trace in ("alicloud", "tencloud"):
        cfg = ExperimentConfig(
            method="tsue", trace=trace, k=12, m=4, n_clients=16, n_ops=n_ops
        )
        res = run_experiment(cfg, keep_cluster=True)
        stats = res.ecfs.method.residence_stats()
        raw[trace] = stats
        total = sum(
            stats[layer][phase]
            for layer in stats
            for phase in ("append", "buffer", "recycle")
        )
        for layer, phases in stats.items():
            rows[f"{trace} {layer}"] = {
                "APPEND (us)": phases["append"] * 1e6,
                "BUFFER (us)": phases["buffer"] * 1e6,
                "RECYCLE (us)": phases["recycle"] * 1e6,
            }
        rows[f"{trace} TOTAL"] = {"TOTAL (us)": total * 1e6}
    text = format_table(
        rows,
        title="Table 2 — residence time of updated data (TSUE, RS(12,4))",
        floatfmt="{:,.1f}",
    )
    return text, raw
