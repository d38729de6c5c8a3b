"""Fig. 5 — update throughput on the SSD cluster.

Sweep: {Ali-Cloud, Ten-Cloud} x RS(6,2) (12,2) (6,3) (12,3) (6,4) (12,4) x
client counts, methods FO, PL, PLR, PARIX, CoRD, TSUE.  Reported metric is
aggregate update IOPS, exactly the paper's y-axis.
"""

from __future__ import annotations

from typing import Iterable

from repro.harness.runner import ExperimentConfig, current_scale, run_experiment
from repro.harness.sweep import run_grid
from repro.metrics.tables import format_table

__all__ = ["METHODS", "RS_CODES", "run", "run_cell", "cell_config"]

METHODS = ("fo", "pl", "plr", "parix", "cord", "tsue")
RS_CODES = ((6, 2), (12, 2), (6, 3), (12, 3), (6, 4), (12, 4))


def cell_config(
    method: str, trace: str, k: int, m: int, n_clients: int, n_ops: int, seed: int = 2025
) -> ExperimentConfig:
    """Config of one bar of one subplot."""
    return ExperimentConfig(
        method=method,
        trace=trace,
        k=k,
        m=m,
        n_clients=n_clients,
        n_ops=n_ops,
        seed=seed,
    )


def run_cell(
    method: str, trace: str, k: int, m: int, n_clients: int, n_ops: int, seed: int = 2025
) -> float:
    """One bar of one subplot: aggregate update IOPS."""
    return run_experiment(cell_config(method, trace, k, m, n_clients, n_ops, seed)).iops


def run(
    scale: str | None = None,
    traces: Iterable[str] = ("alicloud", "tencloud"),
    rs_codes: Iterable[tuple[int, int]] | None = None,
    methods: Iterable[str] = METHODS,
    client_counts: Iterable[int] | None = None,
) -> tuple[str, dict]:
    scale = scale or current_scale()
    if rs_codes is None:
        rs_codes = ((6, 2), (6, 4)) if scale == "quick" else RS_CODES
    if client_counts is None:
        client_counts = (64,) if scale == "quick" else (4, 16, 64)
    n_ops = 1200 if scale == "quick" else 6000

    # independent cells: fanned through the sweep executor (serial unless
    # REPRO_WORKERS says otherwise)
    grid = run_grid(
        [
            (
                (f"{trace} RS({k},{m}) c{nc}", method.upper()),
                cell_config(method, trace, k, m, nc, n_ops),
            )
            for trace in traces
            for k, m in rs_codes
            for nc in client_counts
            for method in methods
        ]
    )
    data = {
        row: {col: res.iops for col, res in cols.items()}
        for row, cols in grid.items()
    }
    text = format_table(
        data,
        title="Fig.5 — aggregate update IOPS (SSD cluster)",
        floatfmt="{:,.0f}",
    )
    return text, data
