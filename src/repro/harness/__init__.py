"""Experiment harness: one driver per table/figure of the paper.

Every driver exposes ``run()`` returning ``(text, data)`` where ``text``
is the formatted table/series (printed by the benchmarks) and ``data`` is
the raw dict for assertions.  The scale, "quick" (CI-sized, seconds per
experiment) or "full" (closer to paper scale), is read from the
``REPRO_SCALE`` environment variable through :func:`current_scale`.
"""

from repro.harness.runner import (
    ExperimentConfig,
    ExperimentResult,
    current_scale,
    run_experiment,
)
from repro.harness import fig1, fig5, fig6, fig7, fig8, table1, table2

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "current_scale",
    "run_experiment",
    "fig1",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "table1",
    "table2",
]
