"""Sweep executor: independent cells mapped over a stdlib process pool.

Every cell of a paper figure/table is an independent, deterministic
simulation — a pure function of its :class:`ExperimentConfig` (or scenario
name + seed).  :class:`SweepExecutor` runs a list of them:

* **in process** when ``workers`` is 1 (the default, or ``REPRO_WORKERS``),
  when there is a single cell, or on a single-CPU host (a pool there only
  adds start-up + pickle cost) —
  byte-identical to calling :func:`run_experiment` in a loop;
* **across a** :class:`~concurrent.futures.ProcessPoolExecutor` of up to
  ``workers`` spawned processes otherwise.  Each cell is one deterministic
  single-process simulation either way, so results are equal (asserted by
  the test suite).

A cell that raises becomes a :class:`CellFailure` in its slot; a worker
that dies breaks the pool, and every cell that had not finished becomes a
:class:`CellFailure` too, so the sweep always returns.  ``strict`` (the
default) raises after the whole sweep when any cell failed.  Cells are not
retried (they are deterministic), not cached, and not timed out: a hung
cell hangs a serial run just as well, and a scenario's own liveness is
owned by :meth:`FaultInjector.workload_finished`.  Every cell builds its
own populate and trace.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Optional, Sequence

from repro.harness.runner import ExperimentConfig, ExperimentResult, run_experiment

if TYPE_CHECKING:  # pragma: no cover
    from repro.fault.runner import ScenarioResult

__all__ = ["CellFailure", "SweepExecutor", "scenario_cells", "run_cells", "run_grid"]


def scenario_cells(names: Iterable[str], seeds: Iterable[int]) -> list[tuple[str, int]]:
    """The (name, seed) cell order :meth:`SweepExecutor.run_scenarios`
    runs and returns results in (row-major: all seeds per name).  Callers
    labelling the flat result list (e.g. ``repro sweep --table``) must use
    this, not a hand-rolled comprehension, so labels can never desync."""
    return [(name, int(seed)) for name in names for seed in seeds]


# Module-level so they pickle into pool workers.
def _experiment_cell(cfg: ExperimentConfig) -> ExperimentResult:
    return run_experiment(cfg)  # keep_cluster=False: results must pickle


def _scenario_cell(cell: tuple[str, int]) -> "ScenarioResult":
    from repro.fault.runner import ScenarioRunner
    from repro.fault.scenarios import get_scenario

    name, seed = cell
    return ScenarioRunner(get_scenario(name)).run(seed=seed)


@dataclass
class CellFailure:
    """A sweep cell that raised or whose worker died (``strict=False``
    sweeps report these in place of results instead of raising)."""

    cell: Any
    error: str

    def __repr__(self) -> str:  # keeps CLI tables readable
        return f"<failed cell {self.cell!r}: {self.error}>"


def _failure(cell: Any, exc: BaseException) -> CellFailure:
    return CellFailure(cell, f"{type(exc).__name__}: {exc}")


class SweepExecutor:
    """Run independent sweep cells, in process or across a process pool."""

    def __init__(self, workers: Optional[int] = None, strict: bool = True) -> None:
        if workers is None:
            workers = int(os.environ.get("REPRO_WORKERS", "1"))
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.strict = strict

    def run(self, cfgs: Sequence[ExperimentConfig]) -> list[ExperimentResult]:
        """Run every config; results are in input order."""
        return self._run(list(cfgs), _experiment_cell)

    def run_scenarios(
        self, names: Iterable[str], seeds: Iterable[int]
    ) -> list["ScenarioResult"]:
        """Run the scenario × seed grid; results follow
        :func:`scenario_cells` order."""
        return self._run(scenario_cells(list(names), list(seeds)), _scenario_cell)

    def _run(self, cells: list, worker) -> list:
        if self.workers > 1 and len(cells) > 1 and (os.cpu_count() or 1) > 1:
            results = self._run_pool(cells, worker)
        else:
            results = []
            for cell in cells:
                try:
                    results.append(worker(cell))
                except Exception as exc:  # noqa: BLE001 - isolate the cell
                    results.append(_failure(cell, exc))
        failures = [r for r in results if isinstance(r, CellFailure)]
        if failures and self.strict:
            detail = "; ".join(f.error for f in failures[:3])
            raise RuntimeError(f"{len(failures)} sweep cell(s) failed: {detail}")
        return results

    def _run_pool(self, cells: list, worker) -> list:
        # imported lazily so serial runs stay light
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # spawn, not fork: a forked worker would inherit whatever threads
        # and held locks the caller has; a cell carries all its state
        context = multiprocessing.get_context("spawn")
        results = []
        with ProcessPoolExecutor(min(self.workers, len(cells)), context) as pool:
            futures = [pool.submit(worker, cell) for cell in cells]
            for cell, future in zip(cells, futures):
                try:
                    results.append(future.result())
                except Exception as exc:  # noqa: BLE001 - incl. BrokenProcessPool
                    results.append(_failure(cell, exc))
        return results


def run_cells(cfgs: Sequence[ExperimentConfig]) -> list[ExperimentResult]:
    """One-shot helper for figure/table harnesses: run the cells through a
    :class:`SweepExecutor` (``REPRO_WORKERS`` workers — serial by default)."""
    return SweepExecutor().run(cfgs)


def run_grid(
    cells: Sequence[tuple[tuple[str, str], ExperimentConfig]],
    executor: Optional[SweepExecutor] = None,
) -> dict[str, dict[str, ExperimentResult]]:
    """Run ``((row, col), config)`` cells and assemble the results as
    ``grid[row][col]`` — the shape every figure harness tabulates.  Keeps
    label/result pairing in one place so cell ordering can never
    desynchronize from the assembled table.  Pass ``executor`` to reuse a
    caller-owned one."""
    if executor is None:
        executor = SweepExecutor()
    results = executor.run([cfg for _label, cfg in cells])
    grid: dict[str, dict[str, ExperimentResult]] = {}
    for ((row, col), _cfg), res in zip(cells, results):
        grid.setdefault(row, {})[col] = res
    return grid
