"""Fig. 5 — update throughput on the SSD cluster.

Sweep: {Ali-Cloud, Ten-Cloud} x RS(6,2) (12,2) (6,3) (12,3) (6,4) (12,4) x
client counts, methods FO, PL, PLR, PARIX, CoRD, TSUE.  Reported metric is
aggregate update IOPS, exactly the paper's y-axis.
"""

from __future__ import annotations

from repro.harness.runner import ExperimentConfig, current_scale
from repro.harness.sweep import run_grid
from repro.metrics.tables import format_table

__all__ = ["METHODS", "RS_CODES", "run", "cell_config"]

TRACES = ("alicloud", "tencloud")
METHODS = ("fo", "pl", "plr", "parix", "cord", "tsue")
RS_CODES = ((6, 2), (12, 2), (6, 3), (12, 3), (6, 4), (12, 4))
CLIENT_COUNTS = (4, 16, 64)


def cell_config(
    method: str, trace: str, k: int, m: int, n_clients: int, n_ops: int
) -> ExperimentConfig:
    """Config of one bar of one subplot."""
    return ExperimentConfig(
        method=method,
        trace=trace,
        k=k,
        m=m,
        n_clients=n_clients,
        n_ops=n_ops,
    )


def run() -> tuple[str, dict]:
    quick = current_scale() == "quick"
    rs_codes = ((6, 2), (6, 4)) if quick else RS_CODES
    client_counts = (64,) if quick else CLIENT_COUNTS
    n_ops = 1200 if quick else 6000

    # independent cells: fanned through the sweep executor (serial unless
    # REPRO_WORKERS says otherwise)
    grid = run_grid(
        [
            (
                (f"{trace} RS({k},{m}) c{nc}", method.upper()),
                cell_config(method, trace, k, m, nc, n_ops),
            )
            for trace in TRACES
            for k, m in rs_codes
            for nc in client_counts
            for method in METHODS
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
