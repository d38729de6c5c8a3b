"""Fig. 7 — breakdown of TSUE's optimizations (Baseline, O1..O5).

Runs the cumulative feature ladder of §5.3.3 on Ali-Cloud and Ten-Cloud
twins under RS(6,M):

* Baseline: DataLog + ParityLog only, single unit, no locality merging,
* O1: + spatio-temporal locality in the DataLog,
* O2: + locality in the ParityLog,
* O3: + the FIFO log-pool structure,
* O4: + 4 log pools per SSD,
* O5: + the DeltaLog layer.
"""

from __future__ import annotations

from repro.harness.runner import ExperimentConfig, current_scale
from repro.harness.sweep import run_grid
from repro.metrics.tables import format_table
from repro.update.tsue import TSUEOptions

__all__ = ["run"]

TRACES = ("alicloud", "tencloud")
MS = (2, 3, 4)  # parity counts m of RS(6, m)


def run() -> tuple[str, dict]:
    quick = current_scale() == "quick"
    traces = ("tencloud",) if quick else TRACES
    ms = (4,) if quick else MS
    n_ops = 1200 if quick else 6000
    ladder = TSUEOptions.breakdown()
    grid = run_grid(
        [
            (
                (f"{trace} RS(6,{m})", step),
                ExperimentConfig(
                    method="tsue",
                    trace=trace,
                    k=6,
                    m=m,
                    n_clients=64,  # saturated, as in the paper's peak
                    n_ops=n_ops,
                    method_options={"options": opts},
                ),
            )
            for trace in traces
            for m in ms
            for step, opts in ladder.items()
        ]
    )
    rows = {
        label: {step: res.iops for step, res in cols.items()}
        for label, cols in grid.items()
    }
    text = format_table(
        rows,
        title="Fig.7 — TSUE optimization breakdown (aggregate update IOPS)",
        floatfmt="{:,.0f}",
    )
    return text, rows
