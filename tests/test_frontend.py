"""Front-end pipeline: admission, retry, hedging, QoS scheduling, SLOs.

Unit tests for the policy pieces (token bucket, backoff, budget,
percentile/window math), integration tests for the dispatcher on a live
cluster (priority order, shedding, retry-heals-crash, hedge-dodges-
partition), and the determinism battery the ISSUE demands: retry/hedge
outcomes digest-stable across in-process reruns, the sweep process pool,
and PYTHONHASHSEED-varied subprocesses.
"""

import os
import subprocess
import sys

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.ecfs import ECFS
from repro.common.errors import (
    DecodeError,
    IntegrityError,
    UnavailableError,
    is_retryable,
)
from repro.common.units import KiB
from repro.frontend import (
    AdmissionConfig,
    AdmissionController,
    FrontEnd,
    RetryBudget,
    TokenBucket,
    backoff_delay,
)
from repro.frontend.admission import MAX_QUEUED
from repro.frontend.retry import BUDGET_INITIAL, BUDGET_RATIO, MAX_RETRIES
from repro.frontend.request import DEFAULT_DEADLINES, Request, RequestResult
from repro.metrics.collector import MetricsCollector


def _small_cluster(seed: int = 7, **kwargs) -> ECFS:
    cfg = ClusterConfig(
        n_osds=12,
        k=4,
        m=2,
        block_size=64 * KiB,
        log_unit_size=128 * KiB,
        seed=seed,
        **kwargs,
    )
    ecfs = ECFS(cfg, method="tsue")
    ecfs.populate(2, 3, fill="random")
    return ecfs


# ------------------------------------------------------------------ policy
def test_token_bucket_refill_and_deny():
    bucket = TokenBucket(rate=10.0, burst=2.0)
    assert bucket.take(0.0) and bucket.take(0.0)
    assert not bucket.take(0.0)  # burst exhausted
    assert bucket.take(0.1)  # 1 token refilled
    # ten seconds refill a 2-token burst, not 100 tokens
    assert bucket.take(10.0) and bucket.take(10.0)
    assert not bucket.take(10.0)  # capped at burst


def test_admission_graduated_depth_bounds():
    cfg = AdmissionConfig()
    assert MAX_QUEUED == 96
    assert cfg.depth_bound("gold") == 96
    assert cfg.depth_bound("silver") == 64
    assert cfg.depth_bound("bronze") == 32
    ctl = AdmissionController(cfg)
    # bronze sheds at a backlog gold rides through
    assert ctl.admit("a", "bronze", 0.0, queued=48) is not None
    assert ctl.admit("a", "gold", 0.0, queued=48) is None
    assert ctl.shed_depth == 1


def test_exponential_backoff_schedule():
    assert MAX_RETRIES == 4
    assert [backoff_delay(i) for i in (1, 2, 3, 4)] == [0.002, 0.004, 0.008, 0.016]
    assert backoff_delay(5) is None


def test_retry_budget_earn_and_deny():
    budget = RetryBudget()
    assert (BUDGET_RATIO, BUDGET_INITIAL) == (0.2, 10.0)
    for _ in range(10):
        assert budget.take()
    assert not budget.take()  # initial spent
    for _ in range(5):
        budget.earn()  # 5 completions x 0.2 = 1 token
    assert budget.take()
    assert not budget.take()
    assert budget.spent == 11 and budget.denied == 2


def test_error_taxonomy():
    assert is_retryable(UnavailableError("down"))
    assert is_retryable(DecodeError("too few"))
    assert not is_retryable(IntegrityError("torn"))
    # existing fault-tolerance paths still catch the subclass
    assert isinstance(UnavailableError("down"), IntegrityError)


def test_request_validation():
    with pytest.raises(ValueError):
        Request(1, "t", "platinum", "read", 1, 0, 4096, 1.0)
    with pytest.raises(ValueError):
        Request(1, "t", "gold", "delete", 1, 0, 4096, 1.0)
    result = RequestResult(status="ok", latency=0.5)
    assert result.met_deadline(1.0) and not result.met_deadline(0.1)


# ----------------------------------------------------------- metric helpers
def test_percentile_stats_labels_and_values():
    stats = MetricsCollector.percentile_stats(list(range(1, 1001)))
    assert stats["p50"] == pytest.approx(500.5)
    assert stats["p99"] > stats["p50"]
    assert stats["p999"] > stats["p99"]
    assert MetricsCollector.percentile_stats([]) == {
        "p50": 0.0, "p99": 0.0, "p999": 0.0
    }


def test_windowed_binning():
    times = [0.0, 0.01, 0.06, 0.11, 0.19]
    vals = [1.0, 2.0, 3.0, 4.0, 5.0]
    centers, bins = MetricsCollector.windowed(times, vals, 0.05)
    assert len(centers) == len(bins) == 4
    assert list(bins[0]) == [1.0, 2.0]
    assert list(bins[1]) == [3.0]
    assert list(bins[3]) == [5.0]


# ------------------------------------------------------------- integration
def test_frontend_serves_and_records_slo():
    ecfs = _small_cluster()
    fe = FrontEnd(ecfs)
    fe.register_tenant("alpha", "gold")
    fe.register_tenant("beta", "bronze")
    events = []
    for i in range(10):
        events.append(fe.submit("update", "alpha", 1, i * 4096, 4096))
        events.append(fe.submit("read", "beta", 2, i * 4096, 4096))
    ecfs.env.run(ecfs.env.all_of(events))
    assert all(ev.value.ok for ev in events)
    summary = fe.slo.summary()
    assert set(summary) == {"alpha/gold", "beta/bronze"}
    assert summary["alpha/gold"]["availability"] == 1.0
    assert summary["alpha/gold"]["p99"] > 0
    # verify the cluster still decodes after pipeline traffic
    ecfs.drain()
    assert ecfs.verify() > 0


def test_frontend_strict_priority_order():
    """With one dispatch slot, a gold arrival enqueued AFTER a pile of
    bronze work still dispatches before it."""
    ecfs = _small_cluster()
    fe = FrontEnd(ecfs, max_inflight=1, hedge_delay=None)
    fe.register_tenant("scavenger", "bronze")
    fe.register_tenant("premium", "gold")
    order = []
    events = []
    for i in range(4):
        ev = fe.submit("read", "scavenger", 1, i * 4096, 4096)
        ev.callbacks.append(lambda _e, i=i: order.append(f"b{i}"))
        events.append(ev)
    ev = fe.submit("read", "premium", 2, 0, 4096)
    ev.callbacks.append(lambda _e: order.append("gold"))
    events.append(ev)
    ecfs.env.run(ecfs.env.all_of(events))
    # b0 was already in flight when gold arrived; gold preempts b1..b3
    assert order.index("gold") <= 1


def test_frontend_sheds_over_rate():
    ecfs = _small_cluster()
    fe = FrontEnd(ecfs, admission=AdmissionConfig(rate=10.0, burst=2.0))
    fe.register_tenant("flood", "bronze")
    events = [fe.submit("read", "flood", 1, i * 4096, 4096) for i in range(8)]
    ecfs.env.run(ecfs.env.all_of(events))
    shed = [ev.value for ev in events if ev.value.status == "shed"]
    assert len(shed) == 6  # burst of 2 admitted at t=0, rest shed
    assert fe.admission.shed_rate == 6


def test_retry_heals_transient_outage(monkeypatch):
    """An update lands on a bounced (down-then-back) node: the first
    attempt fails UnavailableError, backoff retries succeed."""
    monkeypatch.setitem(DEFAULT_DEADLINES, "bronze", 2.0)
    ecfs = _small_cluster()
    fe = FrontEnd(ecfs, hedge_delay=None)
    fe.register_tenant("t", "bronze")
    victim_bid = next(b for b in sorted(ecfs.known_blocks) if b.idx == 0)
    victim = ecfs.osd_hosting(victim_bid)
    ecfs.stop_osd(victim.idx)  # a bounce: contents intact, no MDS declaration

    def heal():
        yield ecfs.env.timeout_us(4_000)
        ecfs.restart_osd(victim.idx)

    ecfs.env.process(heal())
    offset = victim_bid.stripe * ecfs.rs.k * ecfs.config.block_size
    ev = fe.submit("update", "t", victim_bid.file_id, offset, 4096)
    ecfs.env.run(ev)
    result = ev.value
    assert result.ok and result.retries > 0
    assert fe.stats()["retries"] > 0


def test_hedged_read_dodges_partition(monkeypatch):
    monkeypatch.setitem(DEFAULT_DEADLINES, "silver", 1.0)
    ecfs = _small_cluster()
    fe = FrontEnd(ecfs, hedge_delay=0.005)
    fe.register_tenant("t", "silver")
    bid = next(b for b in sorted(ecfs.known_blocks) if b.idx == 0)
    home = ecfs.osd_hosting(bid)
    ecfs.net.partition((home.name,))

    def heal():
        yield ecfs.env.timeout_us(500_000)
        ecfs.net.heal()

    ecfs.env.process(heal())
    offset = bid.stripe * ecfs.rs.k * ecfs.config.block_size
    ev = fe.submit("read", "t", bid.file_id, offset, 4096)
    ecfs.env.run(ev)
    result = ev.value
    assert result.ok and result.hedged and result.hedge_won
    assert result.latency < 0.1  # finished well before the 0.5s heal
    assert fe.counters["hedge_wins"] == 1
    # wait the abandoned primary leg out so nothing dangles
    ecfs.env.run(ecfs.env.process(fe.quiesce()))


def test_quiesce_waits_out_stragglers(monkeypatch):
    """A deadline-abandoned leg keeps running; quiesce must outwait it."""
    monkeypatch.setitem(DEFAULT_DEADLINES, "gold", 0.01)
    ecfs = _small_cluster()
    fe = FrontEnd(ecfs, hedge_delay=None)
    fe.register_tenant("t", "gold")
    bid = next(b for b in sorted(ecfs.known_blocks) if b.idx == 0)
    home = ecfs.osd_hosting(bid)
    ecfs.net.partition((home.name,))

    def heal():
        yield ecfs.env.timeout_us(200_000)
        ecfs.net.heal()

    ecfs.env.process(heal())
    offset = bid.stripe * ecfs.rs.k * ecfs.config.block_size
    ev = fe.submit("update", "t", bid.file_id, offset, 4096)
    ecfs.env.run(ev)
    assert ev.value.status == "deadline"
    fe.close()
    ecfs.env.run(ecfs.env.process(fe.quiesce()))
    # the straggler update landed after the heal: the cluster verifies
    ecfs.drain()
    assert ecfs.verify() > 0


def test_deadline_abandon_counts_each_leg_once():
    """Regression: a read leg that stays alive across several deadline
    wake-ups (its cancel interrupt takes a queue hop to drain) used to be
    re-cancelled and re-counted on every wake.  The abandon path now
    remembers already-cancelled legs, so ``cancelled_legs`` counts each leg
    at most once per attempt — bounded by the legs the attempt spawned."""
    from repro.fault.runner import ScenarioRunner
    from repro.fault.scenarios import get_scenario

    spec = get_scenario("slo-qos-crash")
    result = ScenarioRunner(spec).run(seed=7)
    stats = result.frontend_stats
    deadline_exp = stats.get("deadline_expired", 0)
    # each expired deadline abandons one attempt: at most primary + hedge
    # legs are cancelled per attempt, never more (the double-count bug
    # inflated this linearly with straggler lifetime)
    assert stats.get("cancelled_legs", 0) <= 2 * deadline_exp, stats


# ------------------------------------------------------------- determinism
@pytest.mark.parametrize("name", ["slo-qos-crash", "slo-qos-partition"])
def test_slo_scenario_digest_determinism(name):
    from repro.fault.runner import ScenarioRunner
    from repro.fault.scenarios import get_scenario

    a = ScenarioRunner(get_scenario(name)).run(seed=11)
    b = ScenarioRunner(get_scenario(name)).run(seed=11)
    assert a.digest == b.digest
    assert a.slo == b.slo and a.slo_series == b.slo_series
    c = ScenarioRunner(get_scenario(name)).run(seed=12)
    assert c.digest != a.digest


def test_slo_scenario_digest_stable_across_pool(tmp_path):
    """Serial in-process run == process-pool run (retry/hedge decisions
    must not depend on process state)."""
    from repro.fault.runner import ScenarioRunner
    from repro.fault.scenarios import get_scenario
    from repro.harness.sweep import SweepExecutor

    serial = ScenarioRunner(get_scenario("slo-qos-crash")).run(seed=7)
    pooled = SweepExecutor(workers=2).run_scenarios(
        ["slo-qos-crash", "slo-qos-partition"], [7]
    )
    assert pooled[0].digest == serial.digest
    assert pooled[0].slo == serial.slo


_HASHSEED_SNIPPET = """
from repro.fault.runner import ScenarioRunner
from repro.fault.scenarios import get_scenario
r = ScenarioRunner(get_scenario("slo-qos-partition")).run(seed=7)
print(r.digest)
print(sorted(r.slo.items()))
"""


def test_slo_digest_stable_across_hashseeds():
    """Retry/hedge/SLO outcomes must not depend on PYTHONHASHSEED: two
    fresh interpreters with different hash seeds agree byte-for-byte."""
    src_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

    def run(hashseed: str) -> str:
        env = dict(os.environ, PYTHONPATH=src_dir, PYTHONHASHSEED=hashseed)
        proc = subprocess.run(
            [sys.executable, "-c", _HASHSEED_SNIPPET],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        return proc.stdout

    assert run("1") == run("424242")
