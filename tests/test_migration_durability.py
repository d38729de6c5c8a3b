"""Durability under elasticity: the {crash, bounce} x {mid-migration,
mid-epoch-advance} x update-method matrix.

Every cell joins an OSD under live updates, lands a fault either between
the epoch advance and the first block move or in the thick of the
migration, lets recovery (crash) or a restart (bounce) run concurrently
with the remaining moves, and then requires the stripe-verify oracle to
pass byte-for-byte — no acked update lost, none double-applied, no matter
which epoch a block's log content was written under.

The fast tier runs a smoke subset; the full matrix is ``slow`` (nightly).
Alongside the matrix: white-box coverage of the settle-or-ship migration
protocol (``Rebalancer.ship_threshold``), the scheduler's ``expedite``
escape hatch, and TSUE's arbiter-bypassing recovery flush — the two halves
of the recovery-priority-inversion fix.
"""

import pytest

from repro.cluster import ClusterConfig, ECFS, RecoveryManager
from repro.core.recycler import RecyclePlanner
from repro.harness.runner import resolve_trace
from repro.placement import Rebalancer
from repro.traces.replayer import TraceReplayer
from repro.traces.synthetic import generate_trace
from repro.update import METHODS

_BS = 1 << 16
_VICTIM = 3


def _cluster(method, seed, background=None):
    cfg = dict(
        n_osds=10,
        k=4,
        m=2,
        block_size=_BS,
        log_unit_size=2 * _BS,
        placement_policy="crush",
        seed=seed,
    )
    if background is not None:
        cfg["background"] = background
    return ECFS(ClusterConfig(**cfg), method=method)


def _run_cell(method, fault, phase, seed=21, n_ops=140, background=None, **rebal_kw):
    """One matrix cell; returns (ecfs, outcome dict) after full settlement."""
    ecfs = _cluster(method, seed, background)
    files = ecfs.populate(n_files=2, stripes_per_file=3, fill="random")
    env = ecfs.env
    # slow the migration (8 blocks/sec via the legacy cap unless the cell
    # brings its own pacing) so both fault windows are wide enough to land
    # in deterministically
    if background is None:
        rebal_kw.setdefault("bandwidth_cap", 8 * _BS)
    rebal = Rebalancer(ecfs, **rebal_kw)
    outcome = {}

    def inject():
        if fault == "crash":
            ecfs.crash_osd(_VICTIM)
            report = yield env.process(
                RecoveryManager(ecfs).fail_and_recover(_VICTIM), name="recover"
            )
            outcome["recovery"] = report
        else:  # bounce: transient outage, contents intact, no rebuild
            ecfs.stop_osd(_VICTIM)
            yield env.timeout_us(50_000)
            ecfs.restart_osd(_VICTIM)

    def elastic():
        yield env.timeout_us(500)  # updates already in flight
        _osd, plan = ecfs.join_osd()
        assert plan.moves
        if phase == "mid-epoch-advance":
            # the victim dies after the epoch advanced but before a single
            # block moved; repair and migration then race each other
            fault_proc = env.process(inject(), name="inject")
            report = yield env.process(rebal.run(plan), name="rebal")
        else:  # mid-migration
            proc = env.process(rebal.run(plan), name="rebal")
            while rebal.moved_blocks < 1:
                yield env.timeout_us(200)
            fault_proc = env.process(inject(), name="inject")
            report = yield proc
        yield fault_proc
        outcome["rebalance"] = report

    proc = env.process(elastic(), name="elastic")
    trace = generate_trace(
        resolve_trace("tencloud"), n_ops, files,
        ecfs.mds.lookup(files[0]).size, seed=seed,
    )
    TraceReplayer(ecfs, trace).run(4, tolerate_failures=True)
    env.run(proc)
    ecfs.drain()
    return ecfs, outcome


# the fast-tier smoke subset: one cell per fault/phase axis, both pacing
# paths for TSUE; every other cell runs in the nightly full matrix
_SMOKE = {
    ("crash", "mid-migration", "tsue"),
    ("bounce", "mid-migration", "tsue"),
    ("crash", "mid-epoch-advance", "pl"),
}

_MATRIX = [
    pytest.param(
        fault, phase, method,
        marks=() if (fault, phase, method) in _SMOKE else pytest.mark.slow,
        id=f"{fault}-{phase}-{method}",
    )
    for fault in ("crash", "bounce")
    for phase in ("mid-migration", "mid-epoch-advance")
    for method in sorted(METHODS)
]


@pytest.mark.parametrize("fault,phase,method", _MATRIX)
def test_fault_during_elasticity_rebuilds_byte_identically(fault, phase, method):
    ecfs, outcome = _run_cell(method, fault, phase)
    if fault == "crash":
        assert outcome["recovery"].blocks_rebuilt > 0
    report = outcome["rebalance"]
    assert report.moved_blocks + report.skipped == report.planned
    assert ecfs.verify() == 6  # 2 files x 3 stripes, byte-exact vs oracle


def test_crash_mid_migration_with_scheduler_pacing():
    """The same crash cell through the unified background scheduler's
    ``rebalance`` stream (MoveOp grants) instead of the legacy cap — both
    pacing paths run the identical settle-or-ship protocol."""
    from repro.background import BackgroundConfig

    bg = BackgroundConfig(enabled=True, bandwidth=2 * _BS)
    ecfs, outcome = _run_cell("tsue", "crash", "mid-migration", background=bg)
    assert outcome["recovery"].blocks_rebuilt > 0
    assert ecfs.verify() == 6


# ------------------------------------------------------- settle-or-ship
def _loaded_cluster(seed=11):
    """A TSUE cluster with live, undrained log debt (no flush after replay)."""
    ecfs = _cluster("tsue", seed)
    files = ecfs.populate(n_files=2, stripes_per_file=3, fill="random")
    trace = generate_trace(
        resolve_trace("tencloud"), 120, files,
        ecfs.mds.lookup(files[0]).size, seed=seed,
    )
    TraceReplayer(ecfs, trace).run(4)
    assert any(ecfs.method.log_debt_bytes(o) for o in ecfs.osds)
    return ecfs


def _debt_carrying_osd(ecfs) -> int:
    """Index of an OSD hosting at least one block with live log content
    addressed to it — decommissioning it guarantees the migration meets
    pending log bytes (a join's few moves may miss them by chance)."""
    for block in sorted(ecfs.known_blocks):
        osd = ecfs.osd_hosting(block)
        if ecfs.method.block_log_bytes(osd, block) > 0:
            return osd.idx
    raise AssertionError("no block with pending log content")


def test_block_log_queries_leave_recycle_stats_alone():
    """A migration's log queries are not recycles: ``block_log_bytes`` and
    ``collect_block_logs`` leave the planner's ``raw_records`` /
    ``planned_extents`` unchanged, and key each extent as a full plan of
    its unit would."""
    ecfs = _loaded_cluster()
    method, planner = ecfs.method, ecfs.method.planner
    stats = (planner.raw_records, planner.planned_extents)
    queried = 0
    for block in sorted(ecfs.known_blocks):
        osd = ecfs.osd_hosting(block)
        pending = method.block_log_bytes(osd, block)
        records = method.collect_block_logs(osd, block)
        assert pending == sum(ext.size for *_rest, ext in records)
        planned = [
            (unit, key)
            for layer, prefix in (("datalog", "dl"), ("paritylog", "pl"))
            for _p, pool in method.built_pools(osd.name, layer)
            for unit in pool.live_units()
            for work in RecyclePlanner().plan(unit)
            if work.block == block
            for key, _ext in work.keyed(prefix)
            if key not in unit.recycle_progress
        ]
        assert [(unit, key) for _l, _p, unit, key, _e in records] == planned
        queried += pending > 0
    assert queried and (planner.raw_records, planner.planned_extents) == stats


def test_ship_path_replays_live_log_content_at_destination():
    """``ship_threshold=0`` forces every block with pending log content
    down the log-shipping path: extents travel with the block and replay
    at the destination, dedup-token-guarded — and the cluster still
    verifies byte-exact."""
    ecfs = _loaded_cluster()
    plan = ecfs.decommission_osd(_debt_carrying_osd(ecfs))
    report = ecfs.env.run(
        ecfs.env.process(Rebalancer(ecfs, ship_threshold=0).run(plan), name="rebal")
    )
    assert report.shipped_log_bytes > 0
    ecfs.drain()
    assert ecfs.verify() == 6


def test_settle_path_drains_in_place_and_ships_nothing():
    """With the threshold above any per-block debt, every move settles via
    recycle-before-move and the ship path stays cold."""
    ecfs = _loaded_cluster()
    plan = ecfs.decommission_osd(_debt_carrying_osd(ecfs))
    report = ecfs.env.run(
        ecfs.env.process(
            Rebalancer(ecfs, ship_threshold=1 << 30).run(plan), name="rebal"
        )
    )
    assert report.shipped_log_bytes == 0
    ecfs.drain()
    assert ecfs.verify() == 6


# --------------------------------------------- recovery-priority inversion
def test_expedite_releases_parked_recycle_grants():
    """The scheduler-side half of the inversion fix: ``expedite`` fires
    every queued grant of a stream immediately, accounts it granted (and
    expedited), and leaves at most the one in-flight item paced."""
    from repro.background import BackgroundConfig
    from repro.background.work import RecycleOp

    # 1 KiB/s: the first grant sits in paced service for ~minutes of sim
    # time, everything behind it parks in the lane heap
    bg = BackgroundConfig(enabled=True, bandwidth=1024.0)
    ecfs = _cluster("tsue", seed=5, background=bg)
    sched = ecfs.background
    env = ecfs.env
    done = []

    def submit(tag):
        yield from sched.request(RecycleOp(osd="osd0", nbytes=1 << 20, tag=tag))
        done.append(tag)

    for tag in ("a", "b", "c"):
        env.process(submit(tag), name=f"sub-{tag}")
    env.run(until=0.01)
    assert not done  # all three submitted, none granted yet
    assert sched.expedite("recycle") == 2  # "a" is in paced service
    env.run(until=0.02)
    assert sorted(done) == ["b", "c"]
    assert sched.expedited_items == 2
    assert sched.expedited_bytes == 2 << 20
    # expedited grants count as granted: only the in-flight item remains
    assert sched.streams["recycle"].backlog_bytes == 1 << 20
    # a foreign stream is untouched
    assert sched.expedite("scrub") == 0


def test_expedite_is_a_noop_when_disabled():
    ecfs = _cluster("tsue", seed=5)
    assert not ecfs.background.enabled
    assert ecfs.background.expedite("recycle") == 0


def test_recovery_flush_bypasses_arbitered_recycle():
    """The method-side half: during ``_recovery_flush`` TSUE's recyclers
    skip the governed arbiter entirely (counted in
    ``recovery_bypass_bytes``) so recovery settlement cannot queue behind
    a throttled recycle backlog."""
    from repro.background import BackgroundConfig

    bg = BackgroundConfig(enabled=True, bandwidth=4 * _BS)
    ecfs = _cluster("tsue", seed=9, background=bg)
    files = ecfs.populate(n_files=2, stripes_per_file=3, fill="random")
    trace = generate_trace(
        resolve_trace("tencloud"), 120, files,
        ecfs.mds.lookup(files[0]).size, seed=9,
    )
    TraceReplayer(ecfs, trace).run(4)
    method = ecfs.method
    assert method.recovery_bypass_bytes == 0
    ecfs.env.run(ecfs.env.process(method._recovery_flush(), name="rf"))
    assert method.recovery_bypass_bytes > 0
    assert method._recovery_boost == 0  # boost released even on success
    ecfs.drain()
    assert ecfs.verify() == 6


# ------------------------------------------------------ catalog scenarios
def test_crash_mid_rebalance_scenario_smoke():
    """The acceptance scenario: an OSD crashes mid-migration (the
    ``mid_rebalance`` predicate guarantees blocks were in flight) and the
    cluster rebuilds byte-identically — checks assert inside the runner."""
    from repro.fault.runner import ScenarioRunner
    from repro.fault.scenarios import get_scenario

    result = ScenarioRunner(get_scenario("topo-crash-mid-rebalance")).run(seed=7)
    assert result.epoch == 1


@pytest.mark.slow
def test_storm_crash_recovery_scenario():
    """Maintenance-storm crash: recovery flushes complete ahead of the
    governed recycle backlog (asserted by the scenario's own
    ``_expect_recovery_unstarved`` check)."""
    from repro.fault.runner import ScenarioRunner
    from repro.fault.scenarios import get_scenario

    ScenarioRunner(get_scenario("bg-storm-crash-recovery")).run(seed=7)
