"""Sweep executor: parallel == serial, failed and dead cells are isolated,
CLI smoke."""

import os

import pytest

from repro.harness.cli import main
from repro.harness.runner import ExperimentConfig
from repro.harness.sweep import CellFailure, SweepExecutor, run_cells


@pytest.fixture(autouse=True)
def _isolate_sweep_env(monkeypatch):
    """Executor behavior under test must not depend on an ambient
    REPRO_WORKERS."""
    monkeypatch.delenv("REPRO_WORKERS", raising=False)


def _cells() -> list[ExperimentConfig]:
    """A 2-cell grid (method x one trace), small enough for the fast tier."""
    return [
        ExperimentConfig(
            method=method,
            trace="tencloud",
            k=4,
            m=2,
            n_osds=10,
            n_clients=4,
            n_ops=120,
            block_size=1 << 16,
            log_unit_size=1 << 17,
            n_files=2,
            stripes_per_file=2,
        )
        for method in ("tsue", "fo")
    ]


def _comparable(res):
    """Everything that must agree between serial and parallel runs (host-
    side perf is machine-dependent and excluded by design)."""
    return (
        res.iops,
        res.update_iops,
        res.latency,
        res.elapsed_sim,
        res.memory_bytes,
        res.workload,
    )


def test_parallel_sweep_equals_serial():
    """The fast-tier smoke test: a 2-cell grid on 2 workers must agree
    byte-for-byte with the serial run (each cell is one deterministic
    simulation either way)."""
    cells = _cells()
    serial = SweepExecutor(workers=1).run(cells)
    parallel = SweepExecutor(workers=2).run(cells)
    assert [_comparable(r) for r in serial] == [_comparable(r) for r in parallel]
    assert all(r.ecfs is None for r in parallel)  # results crossed processes


def test_scenario_sweep_parallel_equals_serial():
    names, seeds = ["crash-mid-update"], [7]
    (serial,) = SweepExecutor(workers=1).run_scenarios(names, seeds)
    (parallel,) = SweepExecutor(workers=2).run_scenarios(names, seeds + [])
    # wall_seconds/events_per_sec are host-side; the canonical digest and
    # every simulated observable must agree
    assert serial.digest == parallel.digest
    assert serial.ops == parallel.ops
    assert serial.sim_time == parallel.sim_time
    assert serial.fault_log == parallel.fault_log


def test_workers_validation():
    with pytest.raises(ValueError):
        SweepExecutor(workers=0)


# ------------------------------------------------- failed and dead cells
# Module-level cell workers so pool processes can run them.
def _mixed_cell(arg):
    if isinstance(arg, str):
        raise RuntimeError(f"cell exploded on {arg}")
    return arg


def _exit_cell(arg):
    if arg == "exit":
        os._exit(1)
    return arg


def test_crashing_cell_is_reported():
    ex = SweepExecutor(workers=2, strict=False)
    results = ex._run(["boom", 0.01], _mixed_cell)
    assert isinstance(results[0], CellFailure)
    assert "exploded" in results[0].error
    assert results[1] == 0.01


def test_dead_worker_fails_its_cell_and_the_sweep_returns():
    """A cell that kills its worker process breaks the pool: the cell (and
    any cell that had not finished) is a CellFailure, and the sweep returns
    instead of hanging."""
    ex = SweepExecutor(workers=2, strict=False)
    results = ex._run(["exit", 0.0], _exit_cell)
    assert isinstance(results[0], CellFailure)
    assert "BrokenProcessPool" in results[0].error
    assert results[1] == 0.0 or isinstance(results[1], CellFailure)


@pytest.mark.parametrize("workers", [1, 2])
def test_strict_sweep_raises_after_the_sweep(workers):
    ex = SweepExecutor(workers=workers, strict=True)
    with pytest.raises(RuntimeError, match="1 sweep cell"):
        ex._run(["boom", 0.0], _mixed_cell)


def test_serial_run_isolates_failed_cells():
    ex = SweepExecutor(workers=1, strict=False)
    results = ex._run(["boom", 0.0], _mixed_cell)
    assert isinstance(results[0], CellFailure)
    assert results[1] == 0.0


def _pid_cell(_arg) -> int:
    return os.getpid()


def test_one_cpu_host_goes_serial(monkeypatch):
    """On one core a pool only adds per-child start-up cost, so workers=4
    runs in-process."""
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    pids = SweepExecutor(workers=4)._run([0, 1, 2], _pid_cell)
    assert pids == [os.getpid()] * 3


def test_run_cells_defaults_from_env():
    # the autouse fixture cleared REPRO_WORKERS
    results = run_cells(_cells()[:1])
    assert results[0].iops > 0
    assert results[0].perf["events"] > 0


def test_sweep_cli_smoke(capsys):
    rc = main(
        [
            "sweep",
            "--methods",
            "tsue,fo",
            "--traces",
            "tencloud",
            "--ops",
            "100",
            "--clients",
            "4",
            "--workers",
            "2",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "TSUE" in out and "FO" in out
    assert "2 cells" in out
