"""The log-debt ledger equals the brute-force scan it replaced.

``LogPool.backlog`` is an integer moved at seal / recycle-finish / failure,
and each pool keeps its key in the owner's live set exactly while it holds
unrecycled content; ``TSUE`` drains and settles from that set.  The scan
over every unit of every pool survives only here, as the oracle:

* a hypothesis state machine drives one pool through append / force-seal /
  recycle / quota stall / ``fail`` / restart requeue and recounts after
  every step — the backlog, the live set and ``LogPool.live_units``, the one
  place that says which units still hold unrecycled content;
* whole fault scenarios recount across all three layers at every
  settlement notification and at the end of the run;
* the drain's pool visits are counted on 120 and on 480 OSDs: they follow
  the debt, not the cluster size.
"""

from __future__ import annotations

import dataclasses
import signal

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.cluster.ecfs import ECFS
from repro.common.errors import UnavailableError
from repro.core.intervals import MergePolicy
from repro.core.logpool import LogPool
from repro.core.logunit import LogUnitState
from repro.fault.runner import ScenarioRunner
from repro.fault.scenarios import get_scenario
from repro.harness.runner import ExperimentConfig, run_experiment
from repro.sim import Environment
from repro.update.tsue import TSUEOptions

_SEALED = (LogUnitState.RECYCLABLE, LogUnitState.RECYCLING)


# ------------------------------------------------------------------ oracle
def scan_backlog(pool: LogPool) -> int:
    return sum(1 for u in pool.units if u.state in _SEALED)


def scan_holds_debt(pool: LogPool) -> bool:
    return any(
        u.used and u.state is not LogUnitState.RECYCLED for u in pool.units
    )


def scan_debt_bytes(pool: LogPool) -> int:
    """TSUE's ``log_debt_bytes`` as it was spelled before ``live_units``."""
    unrecycled = (
        LogUnitState.EMPTY,
        LogUnitState.RECYCLABLE,
        LogUnitState.RECYCLING,
    )
    return sum(u.used for u in pool.units if u.state in unrecycled)


def assert_ledger_equals_scan(ecfs: ECFS) -> None:
    method = ecfs.method
    for layer, live in method._live.items():
        expect = set()
        for osd in ecfs.osds:
            for p, pool in method.built_pools(osd.name, layer):
                assert pool.backlog == scan_backlog(pool), pool.name
                assert sum(u.used for u in pool.live_units()) == scan_debt_bytes(pool)
                if scan_holds_debt(pool):
                    expect.add((osd.idx, p))
        assert live == expect, layer


# ----------------------------------------------------------- one pool, fuzzed
class PoolLedgerMachine(RuleBasedStateMachine):
    UNIT = 1000

    def __init__(self) -> None:
        super().__init__()
        self.env = Environment()
        self.live: set = set()
        self.pool = LogPool(
            self.env, "p", self.UNIT, MergePolicy.OVERWRITE,
            min_units=1, max_units=3, block_size=1 << 20, live=self.live,
            live_key="p",
        )
        self.recycling: list = []  # units a recycler holds
        self.offset = 0

    def _append(self, size: int):
        try:
            yield from self.pool.append(
                "b", self.offset, np.ones(size, dtype=np.uint8)
            )
        except UnavailableError:
            pass  # the pool died before or while the append waited

    # a third of the appends fill a whole unit: three of them exhaust the
    # quota and the next one stalls until a recycle finishes
    @rule(size=st.one_of(st.integers(1, UNIT), st.just(UNIT)))
    def append(self, size: int) -> None:
        self.offset += size
        self.env.process(self._append(size))
        self.env.run()  # a stalled append stays parked on its waiter

    @rule()
    def force_seal(self) -> None:
        self.pool.seal_active_if_dirty()

    @precondition(lambda self: len(self.pool.recyclable))
    @rule()
    def recycle_start(self) -> None:
        unit = self.pool.recyclable.get().value  # a unit is queued: no wait
        unit.start_recycle(self.env.now)
        self.recycling.append(unit)

    @precondition(lambda self: self.recycling)
    @rule(data=st.data())
    def recycle_finish(self, data) -> None:
        i = data.draw(st.integers(0, len(self.recycling) - 1))
        # after fail() this finishes a unit the queue already dropped
        self.pool.unit_recycled(self.recycling.pop(i))
        self.env.run()  # woken appenders proceed

    @rule()
    def fail(self) -> None:
        self.pool.fail()
        self.env.run()

    @rule()
    def restart_requeue(self) -> None:
        self.recycling.clear()  # the recyclers died with the node
        self.pool.requeue_interrupted()

    @invariant()
    def ledger_equals_scan(self) -> None:
        assert self.pool.backlog == scan_backlog(self.pool)
        assert self.pool.holds_debt == scan_holds_debt(self.pool)
        assert ("p" in self.live) == scan_holds_debt(self.pool)
        live = self.pool.live_units()
        assert sum(u.used for u in live) == scan_debt_bytes(self.pool)
        assert bool(live) == scan_holds_debt(self.pool)
        # oldest first, and never a read-cache (RECYCLED) or empty unit
        assert live == [u for u in self.pool.units if u in live]
        assert all(u.used and u.state is not LogUnitState.RECYCLED for u in live)


PoolLedgerMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
TestPoolLedger = PoolLedgerMachine.TestCase


# ------------------------------------------------------- whole fault scenarios
_PRESETS = {
    "default": TSUEOptions(),
    "Baseline": TSUEOptions.breakdown()["Baseline"],
    "O3": TSUEOptions.breakdown()["O3"],
}


@pytest.mark.parametrize("preset", sorted(_PRESETS))
@pytest.mark.parametrize(
    "scenario",
    [
        "crash-mid-update",
        "rolling-restart",
        "topo-join-crush",
        "topo-decommission-crush",
    ],
)
def test_ledger_equals_scan_through_scenario(scenario, preset, monkeypatch):
    checked = []
    notify = ECFS.notify_settlement

    def checking_notify(ecfs):
        # every unit recycled, node failed/restarted and epoch advanced
        assert_ledger_equals_scan(ecfs)
        checked.append(ecfs.env.now)
        notify(ecfs)

    monkeypatch.setattr(ECFS, "notify_settlement", checking_notify)
    spec = get_scenario(scenario)
    spec = dataclasses.replace(
        spec,
        method_options={"options": _PRESETS[preset]},
        checks=[*spec.checks, lambda ecfs, _injector: assert_ledger_equals_scan(ecfs)],
    )
    result = ScenarioRunner(spec).run(seed=7)
    assert result.stripes_verified > 0
    assert len(checked) > 10


# ----------------------------------------------- drain visits follow the debt
def _drain_seal_calls(n_osds: int, monkeypatch) -> int:
    calls = [0]
    draining = [False]
    seal = LogPool.seal_active_if_dirty
    drain = ECFS.drain

    def counting_seal(pool):
        calls[0] += draining[0]
        seal(pool)

    def marking_drain(ecfs):
        draining[0] = True
        try:
            drain(ecfs)
        finally:
            draining[0] = False

    with monkeypatch.context() as patch:
        patch.setattr(LogPool, "seal_active_if_dirty", counting_seal)
        patch.setattr(ECFS, "drain", marking_drain)
        run_experiment(
            ExperimentConfig(
                method="tsue", trace="tencloud", n_osds=n_osds, n_ops=100,
                n_clients=4, n_files=8, stripes_per_file=4,
            )
        )
    return calls[0]


def test_drain_pool_visits_do_not_scale_with_cluster_size(monkeypatch):
    """Same 100-op trace, 4x the OSDs: the drain visits the pools that hold
    debt, so the count stays put (a scan of every pool made it ~4x)."""
    small = _drain_seal_calls(120, monkeypatch)
    large = _drain_seal_calls(480, monkeypatch)
    assert small > 0
    assert large <= 1.25 * small, (small, large)


# ------------------------------------------------------------------ liveness
@pytest.mark.parametrize("seed", [10, 24, 44])
def test_rolling_restart_terminates_when_a_trigger_can_no_longer_fire(seed):
    """Ops that fail during the first bounces leave ``after_ops`` short of
    the third trigger for good: the injector must skip it, not poll it
    forever (these seeds spun in ``FaultInjector._arm``)."""

    def stalled(signum, frame):
        raise TimeoutError(f"rolling-restart seed {seed} did not terminate")

    seen = {}
    spec = get_scenario("rolling-restart")
    spec = dataclasses.replace(
        spec,
        checks=[*spec.checks, lambda _ecfs, injector: seen.update(inj=injector)],
    )
    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(30)
    try:
        result = ScenarioRunner(spec).run(seed=seed)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert seen["inj"].skipped == ["BounceOSD"]
    assert result.failures > 0 and result.stripes_verified > 0
