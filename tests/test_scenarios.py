"""The scenario catalog: every named scenario runs, verifies, and is
seed-deterministic; the CLI exposes the catalog."""

import dataclasses

import pytest

from repro.fault.events import CrashOSD, after_ops
from repro.fault.runner import ScenarioRunner
from repro.fault.scenarios import SCENARIOS, get_scenario
from repro.harness.cli import main
from repro.update import METHODS


def test_catalog_has_at_least_six_scenarios():
    assert len(SCENARIOS) >= 6


def test_unknown_scenario_raises():
    with pytest.raises(KeyError):
        get_scenario("no-such-scenario")


# every row runs and verifies at seed 7 in tests/test_golden_digests.py


def test_catalog_copies_are_independent():
    """``get_scenario`` hands out copies: what a caller appends, sets or
    schedules on one never reaches the row or the next copy."""
    row = SCENARIOS["crash-mid-update"]
    spec = get_scenario("crash-mid-update")
    assert spec == row
    spec.checks.append(lambda ecfs, injector: None)
    spec.n_ops = 1
    spec.faults.when(after_ops(1), CrashOSD(osd=1))
    assert get_scenario("crash-mid-update") == row
    assert spec.checks is not row.checks
    assert len(row.faults) == 1 and len(row.checks) == 1


@pytest.mark.parametrize(
    "name, seed",
    [
        ("slo-qos-crash", 41),
        ("slo-qos-crash", 42),
        ("slo-qos-crash", 43),
        ("slo-qos-partition", 22),
    ],
)
def test_slo_checks_pass_when_no_request_met_the_fault(name, seed):
    """On these seeds the fault touched no request: the crash cell serves
    all 180 requests without a retry, the partition cell issues no hedge.
    Its checks must accept that rather than demand a retry / a hedge win."""
    result = ScenarioRunner(get_scenario(name)).run(seed=seed)
    assert result.stripes_verified > 0


@pytest.mark.parametrize("name", ["crash-mid-update", "rolling-restart", "scrub-repair"])
def test_scenario_seed_determinism(name):
    a = ScenarioRunner(get_scenario(name)).run(seed=5)
    b = ScenarioRunner(get_scenario(name)).run(seed=5)
    assert a.digest == b.digest
    assert a.ops == b.ops and a.failures == b.failures
    assert a.fault_log == b.fault_log
    c = ScenarioRunner(get_scenario(name)).run(seed=6)
    assert c.digest != a.digest


def test_crash_scenario_reports_recovery():
    result = ScenarioRunner(get_scenario("crash-mid-update")).run(seed=7)
    assert len(result.recovery_reports) == 1
    assert result.recovery_reports[0].blocks_rebuilt > 0
    assert result.detected  # heartbeat saw the failure


@pytest.mark.parametrize("seed", [7, 2025])
@pytest.mark.parametrize("method", sorted(METHODS))
def test_bounce_outliving_heartbeat_verifies_for_every_method(method, seed):
    """osd0 is stopped, then crashed and rebuilt while still down, then the
    bounce brings it back.  The crash tells the method although the node
    was already down, so the acked updates osd0 still logged are replayed
    onto the rebuilt blocks (TSUE lost 4,081 bytes of f1.s0 at seed 7 when
    a down node's crash was a no-op)."""
    spec = dataclasses.replace(get_scenario("bounce-outlives-heartbeat"), method=method)
    result = ScenarioRunner(spec).run(seed=seed)
    assert [r.failed_osd for r in result.recovery_reports] == [0]
    assert result.stripes_verified == 4


def test_scrub_scenario_repairs_everything():
    result = ScenarioRunner(get_scenario("scrub-repair")).run(seed=7)
    assert sum(len(r.repaired) for r in result.scrub_reports) == 2


def test_partition_scenario_readmits_islanders():
    result = ScenarioRunner(get_scenario("partition-heal")).run(seed=7)
    assert {idx for idx, _ in result.detected} == {0, 1}
    assert {idx for idx, _ in result.readmitted} == {0, 1}
    assert not result.recovery_reports


# ---------------------------------------------------------------------- CLI
def test_cli_scenario_list(capsys):
    assert main(["scenario", "--list"]) == 0
    out = capsys.readouterr().out
    for name in SCENARIOS:
        assert name in out
    assert len(out.strip().splitlines()) >= 6


def test_cli_scenario_run(capsys):
    assert main(["scenario", "scrub-repair", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    assert "digest:" in out
    assert "scrub-repair" in out


def test_cli_scenario_unknown(capsys):
    assert main(["scenario", "bogus"]) == 2
