"""Unified background-work scheduler: arbiter, lanes, governor, and the
bg-* scenario battery.

Covers:

* weighted-fair arbitration + strict foreground subordination (with the
  aging bound that guarantees starvation freedom),
* end-to-end priority lanes (deadline demotion through the whole process
  tree) and abandoned-read-leg cancellation,
* the governor contrast: foreground p99 strictly better with the governor
  on than off in the maintenance-storm scenario, every stream drained,
* determinism: in-process double-run, SweepExecutor pool vs serial, and
  PYTHONHASHSEED-varied subprocesses,
* a starvation-freedom property: every admitted background stream makes
  progress under sustained foreground load.
"""

import os
import subprocess
import sys

import pytest

from repro.background import (
    BackgroundConfig,
    BackgroundScheduler,
    MoveOp,
    RecycleOp,
    RepairOp,
    ScrubOp,
)
from repro.background.scheduler import MAX_YIELD_POLLS, YIELD_POLL
from repro.cluster.config import ClusterConfig
from repro.cluster.ecfs import ECFS
from repro.common.units import KiB, MiB
from repro.fault.runner import ScenarioRunner
from repro.fault.scenarios import SCENARIOS, get_scenario
from repro.sim import Environment, Lane, spawn_fanout
from repro.storage.base import IOKind, IOPriority


def _bg_cluster(seed: int = 7, *, bg: BackgroundConfig | None = None, **kwargs) -> ECFS:
    cfg = ClusterConfig(
        n_osds=12,
        k=4,
        m=2,
        block_size=64 * KiB,
        log_unit_size=128 * KiB,
        background=bg if bg is not None else BackgroundConfig(enabled=True),
        seed=seed,
        **kwargs,
    )
    ecfs = ECFS(cfg, method="tsue")
    ecfs.populate(2, 2, fill="random")
    return ecfs


# ------------------------------------------------------------------ config
def test_background_config_validation():
    BackgroundConfig().validate()
    with pytest.raises(ValueError):
        BackgroundConfig(bandwidth=0).validate()
    with pytest.raises(ValueError):
        BackgroundConfig(floor=0.0).validate()


def test_work_item_streams_and_validation():
    assert RecycleOp(osd="osd0", nbytes=1).stream == "recycle"
    assert ScrubOp(osd="osd0", nbytes=1).stream == "scrub"
    assert RepairOp(osd="osd0", nbytes=1).stream == "repair"
    assert MoveOp(osd="osd0", nbytes=1).stream == "rebalance"
    with pytest.raises(ValueError):
        RecycleOp(osd="osd0", nbytes=-1)


# --------------------------------------------------------------- scheduler
def test_disabled_scheduler_is_a_strict_noop():
    """With the subsystem disabled a request creates NO event and consumes
    NO simulated time — the mechanism behind the byte-identical default."""
    ecfs = _bg_cluster(bg=BackgroundConfig(enabled=False))
    steps_before = ecfs.env.steps
    gen = ecfs.background.request(RecycleOp(osd="osd0", nbytes=1 << 20))
    with pytest.raises(StopIteration):
        next(gen)
    assert ecfs.env.steps == steps_before
    assert not ecfs.background.active


def test_grants_are_paced_by_bandwidth_and_scale():
    ecfs = _bg_cluster(bg=BackgroundConfig(enabled=True, bandwidth=1 * MiB))
    env = ecfs.env

    def work():
        yield from ecfs.background.request(ScrubOp(osd="osd0", nbytes=512 * KiB))

    t0 = env.now
    env.run(env.process(work()))
    # 512 KiB at 1 MiB/s = 0.5 s of token pacing
    assert env.now - t0 == pytest.approx(0.5, rel=1e-6)
    stats = ecfs.background.stream_stats()["scrub"]
    assert stats["granted_items"] == 1 and stats["backlog_bytes"] == 0


def test_weighted_fairness_orders_contended_grants():
    """With repair weighted 4x over scrub, a contended OSD budget grants
    repair items ahead of an earlier-submitted same-size scrub backlog."""
    ecfs = _bg_cluster(bg=BackgroundConfig(enabled=True, bandwidth=1 * MiB))
    env = ecfs.env
    order: list[str] = []

    def submit(item, label):
        def gen():
            yield from ecfs.background.request(item)
            order.append(label)

        return env.process(gen())

    procs = []
    # scrub submits first, then repair: both queues deep enough to contend
    for i in range(3):
        procs.append(submit(ScrubOp(osd="osd0", nbytes=64 * KiB), f"scrub{i}"))
    for i in range(3):
        procs.append(submit(RepairOp(osd="osd0", nbytes=64 * KiB), f"repair{i}"))
    env.run(env.all_of(procs))
    # the first scrub grant is already at the heap head, but the repair
    # stream's 4x weight packs all its grants before scrub's remainder
    assert order.index("repair2") < order.index("scrub1")
    assert [o for o in order if o.startswith("repair")] == [
        "repair0", "repair1", "repair2"
    ]


def test_grants_yield_to_foreground_backlog_with_aging_bound():
    """A grant holds while the device has queued foreground I/O, but the
    aging bound releases it after MAX_YIELD_POLLS — starvation freedom."""
    cfg = BackgroundConfig(enabled=True, bandwidth=1024 * MiB)
    ecfs = _bg_cluster(bg=cfg)
    env = ecfs.env
    osd = ecfs.osds[0]

    # saturate the device with queued foreground I/O for the whole test
    def fg_flood():
        for _ in range(2000):
            yield from osd.io_block(IOKind.READ, _bid, 0, 4096)

    _bid = sorted(b for b in ecfs.known_blocks if ecfs.osd_hosting(b) is osd)[0]
    floods = [env.process(fg_flood(), name=f"flood{i}") for i in range(4)]

    granted_at = []

    def bg_work():
        yield env.timeout_us(1_000)  # let the flood build a backlog
        yield from ecfs.background.request(ScrubOp(osd=osd.name, nbytes=4096))
        granted_at.append(env.now)

    env.run(env.process(bg_work()))
    assert granted_at, "background work starved under sustained foreground load"
    # released by the aging bound: MAX_YIELD_POLLS polls, not the flood's span
    assert granted_at[0] <= 0.001 + MAX_YIELD_POLLS * YIELD_POLL + 1e-6
    for proc in floods:
        if proc.is_alive:
            proc.interrupt()


def test_starvation_freedom_every_stream_progresses():
    """Property: under sustained foreground load, every admitted stream
    (recycle/scrub/repair/rebalance) makes progress."""
    cfg = BackgroundConfig(enabled=True, bandwidth=8 * MiB)
    ecfs = _bg_cluster(bg=cfg)
    env = ecfs.env
    osd = ecfs.osds[1]
    _bid = sorted(b for b in ecfs.known_blocks if ecfs.osd_hosting(b) is osd)[0]

    def fg_flood():
        for _ in range(5000):
            yield from osd.io_block(IOKind.READ, _bid, 0, 4096)

    floods = [env.process(fg_flood()) for _ in range(4)]
    items = [
        RecycleOp(osd=osd.name, nbytes=32 * KiB),
        ScrubOp(osd=osd.name, nbytes=32 * KiB),
        RepairOp(osd=osd.name, nbytes=32 * KiB),
        MoveOp(osd=osd.name, nbytes=32 * KiB),
    ]

    def bg(item):
        yield from ecfs.background.request(item)

    procs = [env.process(bg(item)) for item in items]
    env.run(env.all_of(procs))
    stats = ecfs.background.stream_stats()
    for stream in ("recycle", "scrub", "repair", "rebalance"):
        assert stats[stream]["granted_items"] == 1, stream
        assert stats[stream]["backlog_bytes"] == 0, stream
    for proc in floods:
        if proc.is_alive:
            proc.interrupt()


# -------------------------------------------------------------------- lanes
def test_lane_floor_semantics():
    lane = Lane()
    assert lane.floor(IOPriority.FOREGROUND) == IOPriority.FOREGROUND
    lane.priority = IOPriority.DEMOTED
    assert lane.floor(IOPriority.FOREGROUND) == IOPriority.DEMOTED
    # a lane never *promotes*: background stays background
    assert lane.floor(IOPriority.BACKGROUND) == IOPriority.BACKGROUND


def test_lane_inherits_through_process_tree_and_demotes_io():
    """Children spawned under a laned process share the cell, child
    processes and fan-out legs alike; flipping it mid-flight demotes I/O
    issued afterwards anywhere in the tree."""
    ecfs = _bg_cluster(bg=BackgroundConfig(enabled=False))
    env = ecfs.env
    osd = ecfs.osds[0]
    bid = sorted(b for b in ecfs.known_blocks if ecfs.osd_hosting(b) is osd)[0]
    seen: list[int] = []

    real_submit = osd.device.submit

    def spy_submit(req):
        seen.append(req.priority)
        return real_submit(req)

    osd.device.submit = spy_submit
    lane = Lane()
    lanes = []

    def child():
        lanes.append(env.active_process.lane)
        yield from osd.io_block(IOKind.READ, bid, 0, 4096)

    def parent():
        yield env.process(child())  # inherits the lane cell
        yield spawn_fanout(env, [child()])  # so does a fan-out leg
        lane.priority = IOPriority.DEMOTED
        yield env.process(child())
        yield spawn_fanout(env, [child()])

    proc = env.process(parent())
    proc.lane = lane
    env.run(proc)
    assert seen == [IOPriority.FOREGROUND] * 2 + [IOPriority.DEMOTED] * 2
    assert len(lanes) == 4 and all(cell is lane for cell in lanes)


def test_deadline_demotes_straggler_update_leg(monkeypatch):
    """A deadline-expired update keeps running (mutations cannot be
    cancelled) but its remaining device I/O runs in the DEMOTED lane."""
    from repro.frontend import DEFAULT_DEADLINES, FrontEnd

    monkeypatch.setitem(DEFAULT_DEADLINES, "gold", 0.01)
    ecfs = _bg_cluster(bg=BackgroundConfig(enabled=False))
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
    assert fe.counters["demoted"] == 1
    assert fe.counters["cancelled_legs"] == 0  # updates are never cancelled
    fe.close()
    ecfs.env.run(ecfs.env.process(fe.quiesce()))
    ecfs.drain()
    assert ecfs.verify() > 0


def test_deadline_cancels_abandoned_read_legs(monkeypatch):
    """A read leg parked on a network cut is cancelled at deadline expiry:
    its queued simulated I/O is withdrawn instead of running to completion,
    so quiesce() no longer has to outwait the heal (the PR-4 known limit)."""
    from repro.frontend import DEFAULT_DEADLINES, FrontEnd

    monkeypatch.setitem(DEFAULT_DEADLINES, "gold", 0.01)
    ecfs = _bg_cluster(bg=BackgroundConfig(enabled=False))
    fe = FrontEnd(ecfs, hedge_delay=None)
    fe.register_tenant("t", "gold")
    bid = next(b for b in sorted(ecfs.known_blocks) if b.idx == 0)
    home = ecfs.osd_hosting(bid)
    ecfs.net.partition((home.name,))  # the read leg parks on the cut

    offset = bid.stripe * ecfs.rs.k * ecfs.config.block_size
    ev = fe.submit("read", "t", bid.file_id, offset, 4096)
    ecfs.env.run(ev)
    assert ev.value.status == "deadline"
    assert fe.counters["cancelled_legs"] == 1
    fe.close()
    # the leg is dead, so quiesce returns without waiting for any heal
    t0 = ecfs.env.now
    ecfs.env.run(ecfs.env.process(fe.quiesce()))
    assert ecfs.env.now == pytest.approx(t0)
    ecfs.net.heal()
    ecfs.drain()
    assert ecfs.verify() > 0


# ------------------------------------------------------------- governor pair
@pytest.fixture(scope="module")
def governor_pair():
    return {
        gov: ScenarioRunner(get_scenario(f"bg-rebalance-governor-{gov}")).run(seed=7)
        for gov in ("on", "off")
    }


def test_governor_strictly_improves_foreground_p99(governor_pair):
    """THE acceptance criterion: same storm, same seed — the governor's
    throttling strictly improves the overall foreground p99 while every
    background stream still drains completely in both runs."""
    on, off = governor_pair["on"], governor_pair["off"]
    assert on.slo_overall["p99"] < off.slo_overall["p99"]
    assert on.governor["breaches"] > 0
    assert on.governor["min_scale"] < 1.0
    for result in (on, off):
        for stream in ("recycle", "scrub", "rebalance"):
            stats = result.background[stream]
            assert stats["granted_items"] > 0, stream
            assert stats["backlog_bytes"] == 0, stream


def test_governor_scenarios_report_stream_stats(governor_pair):
    for result in governor_pair.values():
        assert set(result.background) == {"recycle", "scrub", "repair", "rebalance"}
        for stats in result.background.values():
            assert stats["backlog_bytes"] == 0
        assert result.epoch == 1


# ------------------------------------------------------------- determinism
@pytest.mark.parametrize(
    "name", ["bg-recycle-vs-recovery", "bg-rebalance-governor-on"]
)
def test_bg_scenario_digest_determinism(name):
    a = ScenarioRunner(get_scenario(name)).run(seed=11)
    b = ScenarioRunner(get_scenario(name)).run(seed=11)
    assert a.digest == b.digest
    assert a.background == b.background and a.governor == b.governor
    c = ScenarioRunner(get_scenario(name)).run(seed=12)
    assert c.digest != a.digest


def test_bg_scenario_digest_stable_across_pool(tmp_path):
    """Serial in-process run == SweepExecutor process-pool run."""
    from repro.harness.sweep import SweepExecutor

    serial = ScenarioRunner(get_scenario("bg-scrub-under-load")).run(seed=7)
    pooled = SweepExecutor(workers=2).run_scenarios(
        ["bg-scrub-under-load", "bg-recycle-vs-recovery"], [7]
    )
    assert pooled[0].digest == serial.digest
    assert pooled[0].background == serial.background


_HASHSEED_SNIPPET = """
from repro.fault.runner import ScenarioRunner
from repro.fault.scenarios import get_scenario
r = ScenarioRunner(get_scenario("bg-recycle-vs-recovery")).run(seed=7)
print(r.digest)
print(sorted(r.background.items()))
"""


def test_bg_digest_stable_across_hashseeds():
    """Arbiter/governor outcomes must not depend on PYTHONHASHSEED."""
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


# --------------------------------------------------------------------- misc
def test_bg_catalog_registered():
    bg = {n for n in SCENARIOS if n.startswith("bg-")}
    assert bg == {
        "bg-scrub-under-load",
        "bg-recycle-vs-recovery",
        "bg-rebalance-governor-on",
        "bg-rebalance-governor-off",
        "bg-storm-crash-recovery",
    }


def test_scenario_cli_prints_background_streams(capsys):
    from repro.harness.cli import main

    assert main(["scenario", "bg-scrub-under-load", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    assert "bg scrub" in out


def test_scheduler_stats_shape():
    env = Environment()

    class _FakeECFS:
        pass

    fake = _FakeECFS()
    fake.env = env
    fake.config = ClusterConfig()
    sched = BackgroundScheduler(fake)
    stats = sched.stream_stats()
    assert set(stats) == {"recycle", "scrub", "repair", "rebalance"}
    for s in stats.values():
        assert s["granted_items"] == 0 and s["backlog_bytes"] == 0
    assert sched.fully_drained and not sched.active
