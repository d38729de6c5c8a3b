"""SLO scenario grid + metric regression tests (fast tier).

The catalog-wide run/verify/determinism coverage lives in
tests/test_scenarios.py (parametrized over every scenario, slo-* included);
this file pins the *SLO semantics*: per-class availability ordering, the
presence and shape of the windowed series, retry/hedge behaviour under each
fault archetype, and the CLI surfaces (`repro scenario slo-*`, `repro sweep
--table`).
"""

import pytest

from repro.fault.runner import ScenarioRunner
from repro.fault.scenarios import SCENARIOS, get_scenario
from repro.harness.cli import main
from repro.metrics.tables import format_markdown

_SLO_KEYS = {
    "submitted", "served", "shed", "failed", "deadline_missed", "retries",
    "hedges", "hedge_wins", "availability", "goodput", "error_budget",
    "slo_target", "p50", "p99", "p999",
}


@pytest.fixture(scope="module")
def slo_results():
    return {
        name: ScenarioRunner(get_scenario(name)).run(seed=7)
        for name in sorted(SCENARIOS)
        if name.startswith("slo-")
    }


def test_grid_covers_qos_by_fault(slo_results):
    assert set(slo_results) == {
        "slo-steady",
        "slo-qos-crash",
        "slo-qos-partition",
        "slo-qos-rebalance",
        "slo-adaptive-brownout",
    }
    for result in slo_results.values():
        # every cell reports all three QoS classes with the full SLO schema
        classes = {who.split("/")[1] for who in result.slo}
        assert classes == {"gold", "silver", "bronze"}
        for stats in result.slo.values():
            assert _SLO_KEYS <= set(stats)


def test_steady_baseline_meets_targets(slo_results):
    for who, stats in slo_results["slo-steady"].slo.items():
        assert stats["availability"] == 1.0, who
        assert stats["error_budget"] == 1.0, who
        assert stats["failed"] == 0 and stats["shed"] == 0


def test_crash_cell_heals_by_retry(slo_results):
    result = slo_results["slo-qos-crash"]
    stats = result.frontend_stats
    assert stats["retries"] > 0
    assert len(result.recovery_reports) == 1
    # availability dips below steady but the floors hold
    for who, s in result.slo.items():
        assert 0.75 <= s["availability"] <= 1.0, who


def test_partition_cell_hedges_reads(slo_results):
    result = slo_results["slo-qos-partition"]
    stats = result.frontend_stats
    assert stats["hedges"] > 0 and stats["hedge_wins"] > 0
    # updates into the island miss their deadline; nothing hard-fails
    assert stats["deadline"] > 0 and stats["failed"] == 0
    # the cut shows up in the latency tail
    p99 = {w.split("/")[1]: s["p99"] for w, s in result.slo.items()}
    steady_p99 = {
        w.split("/")[1]: s["p99"]
        for w, s in slo_results["slo-steady"].slo.items()
    }
    assert p99["silver"] > 10 * steady_p99["silver"]


def test_rebalance_cell_produces_window_series(slo_results):
    result = slo_results["slo-qos-rebalance"]
    series = result.slo_series
    assert len(series["t"]) >= 3  # the arrival span covers several windows
    assert len(series["t"]) == len(series["availability"]) == len(series["p99"])
    assert all(0.0 <= a <= 1.0 for a in series["availability"])
    # the migration ran to completion under load and the series spans it
    assert result.rebalance_stats["moved_blocks"] > 0
    assert result.epoch == 1


def test_slo_fields_change_the_digest(slo_results):
    """The canonical digest covers the SLO read-out: two different fault
    cells over the same geometry/tenants never collide."""
    digests = {name: r.digest for name, r in slo_results.items()}
    assert len(set(digests.values())) == len(digests)


# ---------------------------------------------------------------------- CLI
def test_scenario_cli_prints_slo_read_out(capsys):
    assert main(["scenario", "slo-steady", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    assert "slo t-gold/gold" in out
    assert "slo overall" in out
    assert "window series" in out


def test_cli_sweep_table_markdown(capsys):
    assert (
        main(
            [
                "sweep", "--table", "--methods", "tsue", "--traces", "tencloud",
                "--seeds", "2025", "--ops", "60", "--clients", "4", "--workers", "1",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "| trace / seed | TSUE |" in out
    assert "| --- | ---: |" in out


def test_cli_sweep_table_scenarios(capsys):
    assert (
        main(["sweep", "--table", "--scenarios", "slo-steady", "--seeds", "7"])
        == 0
    )
    out = capsys.readouterr().out
    assert "| scenario | seed 7 |" in out
    assert "slo-steady" in out


def test_format_markdown_cells():
    table = format_markdown(
        {"r1": {"a": 1.5, "b": 2}, "r2": {"a": None, "b": "x"}}, corner="row"
    )
    lines = table.splitlines()
    assert lines[0] == "| row | a | b |"
    assert lines[1] == "| --- | ---: | ---: |"
    assert lines[2] == "| r1 | 1.50 | 2 |"
    assert lines[3] == "| r2 | - | x |"
