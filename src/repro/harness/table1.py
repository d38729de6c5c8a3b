"""Table 1 — storage workload and network traffic.

Replays the Ten-Cloud twin under RS(6,4) for every method and reports
READ/WRITE ops + volume, OVERWRITE ops + volume, and network traffic —
plus the derived erase counts behind the lifespan claim.
"""

from __future__ import annotations

from repro.harness.runner import ExperimentConfig, current_scale
from repro.harness.sweep import run_cells
from repro.metrics.lifespan import lifespan_ratios
from repro.metrics.tables import format_table

__all__ = ["METHODS", "run"]

METHODS = ("fo", "pl", "plr", "parix", "cord", "tsue")


def run() -> tuple[str, dict]:
    n_ops = 1500 if current_scale() == "quick" else 8000
    results = run_cells(
        [
            ExperimentConfig(
                method=method, trace="tencloud", k=6, m=4, n_clients=16, n_ops=n_ops
            )
            for method in METHODS
        ]
    )
    data: dict[str, dict[str, float]] = {}
    erases: dict[str, float] = {}
    for method, res in zip(METHODS, results):
        row = res.workload.row()
        row["ERASES"] = res.workload.total_erases
        data[method.upper()] = row
        erases[method] = res.workload.total_erases
    ratios = lifespan_ratios(erases, reference="tsue")
    for method in METHODS:
        data[method.upper()]["LIFESPAN (TSUE=1x)"] = (
            1.0 / ratios[method] if ratios[method] else float("inf")
        )
    text = format_table(
        data,
        title="Table 1 — storage workload and network traffic "
        "(Ten-Cloud, RS(6,4))",
        floatfmt="{:,.3f}",
    )
    return text, {"rows": data, "lifespan_ratio_vs_tsue": ratios}
