"""Sweep executor: parallel == serial, content-addressed cache, per-cell
timeout + retry fault isolation, CLI smoke."""

import os
import time

import pytest

from repro.harness.cli import main
from repro.harness.runner import ExperimentConfig
from repro.harness.sweep import (
    CellFailure,
    SweepExecutor,
    config_key,
    run_cells,
    scenario_key,
)


@pytest.fixture(autouse=True)
def _isolate_sweep_env(monkeypatch):
    """Executor behavior under test must not depend on ambient knobs (CI
    exports REPRO_CACHE_DIR so figure sweeps reuse cells — that would make
    the parallel==serial assertions vacuous cache hits here)."""
    for var in ("REPRO_WORKERS", "REPRO_CACHE_DIR", "REPRO_CELL_TIMEOUT"):
        monkeypatch.delenv(var, raising=False)


def _cells(n_ops: int = 120) -> list[ExperimentConfig]:
    """A 2-cell grid (method x one trace), small enough for the fast tier."""
    return [
        ExperimentConfig(
            method=method,
            trace="tencloud",
            k=4,
            m=2,
            n_osds=10,
            n_clients=4,
            n_ops=n_ops,
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


def test_config_key_is_content_addressed():
    a, b = _cells()
    assert config_key(a) != config_key(b)  # different methods
    assert config_key(a) == config_key(_cells()[0])  # same content
    assert scenario_key("crash-mid-update", 7) != scenario_key(
        "crash-mid-update", 8
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


def test_cache_roundtrip(tmp_path):
    cells = _cells()
    ex = SweepExecutor(workers=1, cache_dir=str(tmp_path))
    first = ex.run(cells)
    assert ex.stats.cache_hits == 0
    assert len(list(tmp_path.glob("*.pkl"))) == len(cells)
    second = ex.run(cells)
    assert ex.stats.cache_hits == len(cells)
    assert [_comparable(r) for r in first] == [_comparable(r) for r in second]


def test_cache_miss_on_config_change(tmp_path):
    ex = SweepExecutor(workers=1, cache_dir=str(tmp_path))
    ex.run(_cells())
    ex.run(_cells(n_ops=121))
    assert ex.stats.cache_hits == 0  # different n_ops => different address


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    cells = _cells()[:1]
    ex = SweepExecutor(workers=1, cache_dir=str(tmp_path))
    ex.run(cells)
    (entry,) = tmp_path.glob("*.pkl")
    entry.write_bytes(b"not a pickle")
    res = ex.run(cells)
    assert ex.stats.cache_hits == 0
    assert res[0].iops > 0


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
    with pytest.raises(ValueError):
        SweepExecutor(cell_timeout=0)
    with pytest.raises(ValueError):
        SweepExecutor(retries=-1)


# -------------------------------------------- per-cell timeout + retry
# Module-level cell workers so child processes can run them.
def _sleep_cell(seconds: float) -> float:
    time.sleep(seconds)
    return seconds


def _crash_cell(arg):
    raise RuntimeError(f"cell exploded on {arg}")


def _flaky_cell(sentinel_path: str) -> str:
    """Fails on the first attempt (cross-process: a file records it)."""
    if not os.path.exists(sentinel_path):
        with open(sentinel_path, "w") as fh:
            fh.write("attempted")
        raise RuntimeError("first attempt fails")
    return "ok"


def test_hung_cell_is_killed_retried_and_reported():
    """A hanging cell must not wedge the pool: it is terminated at the
    timeout, retried once, then reported as a failed cell while healthy
    cells complete normally."""
    ex = SweepExecutor(workers=2, cell_timeout=0.25, strict=False)
    t0 = time.monotonic()
    results = ex._run(["hang", "fine"], [30.0, 0.01], _sleep_cell)
    wall = time.monotonic() - t0
    assert wall < 10  # two 0.25s timeouts, not a 30s hang
    assert isinstance(results[0], CellFailure)
    assert "timed out" in results[0].error
    assert results[0].attempts == 2
    assert results[1] == 0.01
    assert ex.stats.timeouts == 2
    assert ex.stats.retried == 1
    assert ex.stats.failed == 1


def test_crashing_cell_is_retried_then_reported():
    ex = SweepExecutor(workers=2, strict=False)
    results = ex._run(["a", "b"], ["boom", 0.01], _mixed_cell)
    assert isinstance(results[0], CellFailure)
    assert "exploded" in results[0].error
    assert results[1] == 0.01
    assert ex.stats.retried == 1
    assert ex.stats.failed == 1


def _mixed_cell(arg):
    if isinstance(arg, str):
        return _crash_cell(arg)
    return _sleep_cell(arg)


def test_flaky_cell_succeeds_on_retry(tmp_path):
    sentinel = str(tmp_path / "flaky.sentinel")
    ex = SweepExecutor(workers=2, strict=False)
    results = ex._run(
        ["flaky", "also"],
        [sentinel, str(tmp_path / "other.sentinel")],
        _flaky_cell,
    )
    assert results == ["ok", "ok"]
    assert ex.stats.retried == 2
    assert ex.stats.failed == 0


def test_strict_sweep_raises_after_retries():
    ex = SweepExecutor(workers=1, strict=True)
    with pytest.raises(RuntimeError, match="failed after retries"):
        ex._run(["a"], ["boom"], _crash_cell)
    assert ex.stats.retried == 1


def test_serial_retry_isolates_dead_cells():
    ex = SweepExecutor(workers=1, strict=False, retries=1)
    results = ex._run(["a", "b"], ["boom", 0.0], _mixed_cell)
    assert isinstance(results[0], CellFailure)
    assert results[0].attempts == 2
    assert results[1] == 0.0


def _pid_cell(_arg) -> int:
    return os.getpid()


@pytest.mark.parametrize("cell_timeout, in_process", [(None, True), (30.0, False)])
def test_one_cpu_host_goes_serial_unless_a_timeout_needs_children(
    monkeypatch, cell_timeout, in_process
):
    """On one core a pool only adds per-child start-up cost, so workers=4
    runs in-process — except when a cell_timeout needs killable children."""
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    ex = SweepExecutor(workers=4, cell_timeout=cell_timeout)
    pids = ex._run(["a", "b", "c"], [0, 1, 2], _pid_cell)
    assert [pid == os.getpid() for pid in pids] == [in_process] * 3


def test_failed_cells_are_not_cached(tmp_path):
    ex = SweepExecutor(workers=1, strict=False, cache_dir=str(tmp_path))
    ex._run(["a"], ["boom"], _crash_cell)
    assert not list(tmp_path.glob("*.pkl"))


def test_run_cells_defaults_from_env():
    # the autouse fixture cleared REPRO_WORKERS / REPRO_CACHE_DIR
    results = run_cells(_cells()[:1])
    assert results[0].iops > 0
    assert results[0].perf["events"] > 0


def test_sweep_cli_smoke(capsys, tmp_path):
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
            "--cache-dir",
            str(tmp_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "TSUE" in out and "FO" in out
    assert "2 cells" in out
    assert os.listdir(tmp_path)  # cache populated


def test_prefix_cache_shares_populate_and_trace(monkeypatch):
    """Cells sharing geometry+seed hit the populate/trace memos — and the
    cached cell is byte-identical to the cold one (equal digests)."""
    from repro.fault.runner import ScenarioRunner
    from repro.fault.scenarios import get_scenario
    from repro.harness import prefix

    prefix.clear_prefix_caches()
    cold = ScenarioRunner(get_scenario("rolling-restart")).run(seed=31)
    assert prefix._populate_memo and prefix._trace_memo
    warm = ScenarioRunner(get_scenario("rolling-restart")).run(seed=31)
    assert warm.digest == cold.digest
    # disabling the cache must also reproduce the digest
    monkeypatch.setenv("REPRO_PREFIX_CACHE", "0")
    off = ScenarioRunner(get_scenario("rolling-restart")).run(seed=31)
    assert off.digest == cold.digest
    prefix.clear_prefix_caches()


def test_prefix_cache_hit_shares_the_snapshot_views():
    """A populate hit copies no block: the stores and the oracle hold the
    memo's read-only views, and the cold cell's later writes (XOR deltas)
    never reach them."""
    import numpy as np

    from repro.cluster import ClusterConfig, ECFS
    from repro.harness import prefix

    prefix.clear_prefix_caches()
    cfg = ClusterConfig(n_osds=8, k=4, m=2, block_size=1 << 14, seed=5)
    cold = ECFS(cfg, method="fo")
    files = prefix.populate_cached(cold, 2, 2)
    (snap,) = prefix._populate_memo.values()
    pristine = {bid: np.array(view) for bid, view in snap["blocks"]}
    stamp = np.full(16, 0xEE, dtype=np.uint8)
    for bid in pristine:
        cold.osd_hosting(bid).store.write(bid, 0, stamp)
        if bid.idx < cfg.k:
            cold.oracle.apply(bid, 0, stamp)

    warm = ECFS(cfg, method="fo")
    assert prefix.populate_cached(warm, 2, 2) == files
    for bid, view in snap["blocks"]:
        assert not view.flags.writeable
        assert np.array_equal(view, pristine[bid])
        assert np.shares_memory(warm.osd_hosting(bid).store.view(bid), view)
        if bid.idx < cfg.k:
            assert np.shares_memory(warm.oracle.expected(bid), view)
    assert warm.oracle.applied_updates == 0
    assert warm.verify() == len(files) * 2
    prefix.clear_prefix_caches()
