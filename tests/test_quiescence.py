"""Event-based stripe-quiescence waiters: exact wakeups, FIFO fairness."""

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.ecfs import ECFS
from repro.common.refcount import RefCounter


def _ecfs() -> ECFS:
    return ECFS(
        ClusterConfig(
            n_osds=8, k=4, m=2, block_size=1 << 16, log_unit_size=1 << 17
        ),
        method="fo",
    )


# ---------------------------------------------------------------- RefCounter


def test_refcounter_nesting_and_zero_hook():
    fired = []
    rc = RefCounter(on_zero=fired.append)
    assert rc.incr("k") == 1
    assert rc.incr("k") == 2
    assert "k" in rc and bool(rc) and len(rc) == 1
    assert rc.decr("k") == 1
    assert fired == []  # still held
    assert rc.decr("k") == 0
    assert fired == ["k"]
    assert "k" not in rc and not rc


def test_refcounter_overrelease_clamps():
    fired = []
    rc = RefCounter(on_zero=fired.append)
    assert rc.decr("k") == 0
    assert fired == ["k"]
    assert rc.count("k") == 0


def test_refcounter_iteration_matches_held_keys():
    rc = RefCounter()
    rc.incr(("a", 1))
    for _ in range(3):
        rc.incr(("b", 2))
    assert set(rc) == {("a", 1), ("b", 2)}
    assert rc.count(("b", 2)) == 3


# ------------------------------------------------------------------- waiters


def test_thaw_waiter_wakes_exactly_at_last_release():
    """Two nested freezes: the waiter must sleep through the first thaw and
    wake exactly when the second (last) one releases — no 1e-4 poll grid."""
    ecfs = _ecfs()
    env = ecfs.env
    woke = []

    ecfs.freeze_stripe(0, 0)
    ecfs.freeze_stripe(0, 0)

    def waiter():
        yield from ecfs.wait_stripe_thaw(0, 0)
        woke.append(env.now)

    def thawer():
        yield env.timeout_us(1_000_000)
        ecfs.thaw_stripe(0, 0)  # one hold left: waiter must not wake
        yield env.timeout_us(1_500_000)
        ecfs.thaw_stripe(0, 0)  # last hold releases at t=2.5

    env.process(waiter())
    env.process(thawer())
    env.run()
    assert woke == [2.5]


def test_thaw_waiters_wake_in_fifo_order():
    ecfs = _ecfs()
    env = ecfs.env
    order = []

    ecfs.freeze_stripe(0, 0)

    def waiter(tag):
        yield from ecfs.wait_stripe_thaw(0, 0)
        order.append(tag)

    for tag in "abc":
        env.process(waiter(tag))

    def thawer():
        yield env.timeout_us(1_000_000)
        ecfs.thaw_stripe(0, 0)

    env.process(thawer())
    env.run()
    assert order == ["a", "b", "c"]


def test_inflight_release_wakes_stripe_waiter():
    from repro.cluster.ids import BlockId

    ecfs = _ecfs()
    env = ecfs.env
    woke = []
    block = BlockId(0, 0, 0)
    ecfs.note_update_begin(block)

    def waiter():
        while ecfs.inflight_updates(0, 0):
            yield ecfs.stripe_released(0, 0)
        woke.append(env.now)

    def releaser():
        yield env.timeout_us(750_000)
        ecfs.note_update_end(block)

    env.process(waiter())
    env.process(releaser())
    env.run()
    assert woke == [0.75]


def test_settlement_event_woken_by_notify():
    ecfs = _ecfs()
    env = ecfs.env
    woke = []

    def waiter():
        yield ecfs.settlement_event()
        woke.append(env.now)

    def notifier():
        yield env.timeout_us(2_000_000)
        ecfs.notify_settlement()

    env.process(waiter())
    env.process(notifier())
    env.run()
    assert woke == [2.0]


def test_no_spurious_wakeups_while_frozen():
    """A waiter on stripe A must not be woken by stripe B's thaw (per-key
    waiter lists), only by a cluster-wide settlement notification."""
    ecfs = _ecfs()
    env = ecfs.env
    wakes = []

    ecfs.freeze_stripe(0, 0)
    ecfs.freeze_stripe(0, 1)

    def waiter():
        while ecfs.stripe_frozen(0, 0):
            ev = ecfs.stripe_released(0, 0)
            yield ev
            wakes.append(env.now)

    def other_thaw():
        yield env.timeout_us(1_000_000)
        ecfs.thaw_stripe(0, 1)  # other stripe: no wake for (0, 0)
        yield env.timeout_us(1_000_000)
        ecfs.thaw_stripe(0, 0)

    env.process(waiter())
    env.process(other_thaw())
    env.run()
    assert wakes == [pytest.approx(2.0)]
