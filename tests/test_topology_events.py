"""Elastic topology events end-to-end: join/decommission/reweight on a live
cluster, the background rebalancer's correctness under concurrent updates,
bandwidth capping, and the catalog's policy x event scenarios."""

from repro.cluster import ClusterConfig, ECFS
from repro.fault.runner import ScenarioRunner
from repro.fault.scenarios import get_scenario
from repro.placement import Rebalancer


def _cluster(placement="crush", **kw):
    defaults = dict(
        n_osds=16,
        k=4,
        m=2,
        block_size=1 << 16,
        log_unit_size=1 << 17,
        placement_policy=placement,
        seed=33,
    )
    defaults.update(kw)
    return ECFS(ClusterConfig(**defaults))


def _run_rebalance(ecfs, plan, **kw):
    rebalancer = Rebalancer(ecfs, **kw)
    return ecfs.env.run(ecfs.env.process(rebalancer.run(plan), name="rebal"))


def test_join_rebalance_settles_and_verifies():
    ecfs = _cluster()
    ecfs.populate(n_files=3, stripes_per_file=4, fill="random")
    osd, plan = ecfs.join_osd()
    assert ecfs.placement.epoch == 1
    assert len(ecfs.osds) == 17
    assert plan.moves  # the newcomer takes real load
    report = _run_rebalance(ecfs, plan)
    assert report.moved_blocks == len(plan.moves)
    assert ecfs.placement.balanced()
    # moved blocks live (and are byte-correct) at their new homes
    for op in plan.moves:
        assert ecfs.placement.home_of(op.block) == op.dst
        assert op.block in ecfs.osds[op.dst].store
    ecfs.drain()
    assert ecfs.verify() == 12
    # the collector saw every move
    stats = ecfs.metrics.rebalance_stats()
    assert stats["moved_blocks"] == report.moved_blocks
    assert stats["moved_bytes"] == report.moved_bytes


def test_join_with_updates_in_flight_loses_nothing():
    """Updates race the migration: logged-but-unapplied TSUE DataLog content
    must settle before its block moves (block_unsettled), and clients chase
    mid-flight re-homes — the cluster verifies byte-clean afterwards."""
    from repro.traces import TraceReplayer, generate_trace, tencloud_spec

    ecfs = _cluster()
    files = ecfs.populate(n_files=3, stripes_per_file=4, fill="random")
    ecfs.add_clients(4)
    fsize = ecfs.mds.lookup(files[0]).size
    trace = generate_trace(tencloud_spec(), 150, files, fsize, seed=5)

    def join_mid_replay():
        yield ecfs.env.timeout_us(500)
        _osd, plan = ecfs.join_osd()
        report = yield ecfs.env.process(
            Rebalancer(ecfs, parallel=2).run(plan), name="rebal"
        )
        return report

    proc = ecfs.env.process(join_mid_replay(), name="join")
    TraceReplayer(ecfs, trace).run(n_clients=4)
    report = ecfs.env.run(proc)
    assert report.moved_blocks + report.skipped == report.planned
    ecfs.drain()
    assert ecfs.placement.balanced()
    assert ecfs.verify() == 12


def test_decommission_drains_and_retires():
    ecfs = _cluster()
    ecfs.populate(n_files=3, stripes_per_file=4, fill="random")
    victim_blocks = [
        b for b in ecfs.known_blocks if ecfs.placement.home_of(b) == 5
    ]
    assert victim_blocks
    plan = ecfs.decommission_osd(5)
    assert {op.block for op in plan.moves} >= set(victim_blocks)
    assert not ecfs.retire_osd(5)  # refuses while blocks remain
    _run_rebalance(ecfs, plan)
    assert all(ecfs.placement.home_of(b) != 5 for b in ecfs.known_blocks)
    assert ecfs.retire_osd(5)
    assert ecfs.osds[5].failed
    ecfs.drain()
    assert ecfs.verify() == 12


def test_reweight_sheds_proportional_load():
    ecfs = _cluster()
    ecfs.populate(n_files=4, stripes_per_file=6, fill="random")
    before = ecfs.placement_loads()[2]
    plan = ecfs.set_osd_weight(2, 0.25)
    _run_rebalance(ecfs, plan)
    after = ecfs.placement_loads()[2]
    assert after < before
    ecfs.drain()
    assert ecfs.verify() == 24


def test_rebalancer_honours_bandwidth_cap():
    ecfs = _cluster()
    ecfs.populate(n_files=3, stripes_per_file=4, fill="random")
    _osd, plan = ecfs.join_osd()
    cap = 8 * ecfs.config.block_size  # bytes/sec
    report = _run_rebalance(ecfs, plan, bandwidth_cap=cap, parallel=4)
    assert report.moved_blocks == len(plan.moves)
    # the shared token timeline keeps aggregate throughput under the cap:
    # n moves reserve (n-1) * bs / cap of timeline before the last starts
    min_seconds = (report.moved_blocks - 1) * ecfs.config.block_size / cap
    assert report.seconds >= min_seconds


def test_join_then_recovery_interoperates():
    """A crash after a join: lost_blocks follows actual homes (including
    freshly migrated ones) and the rebuilt cluster verifies."""
    from repro.cluster import RecoveryManager

    ecfs = _cluster()
    ecfs.populate(n_files=2, stripes_per_file=3, fill="random")
    _osd, plan = ecfs.join_osd()
    _run_rebalance(ecfs, plan)
    moved_home = {op.dst for op in plan.moves}
    assert 16 in moved_home  # newcomer actually hosts blocks
    manager = RecoveryManager(ecfs)
    ecfs.env.run(ecfs.env.process(manager.fail_and_recover(16), name="rec"))
    ecfs.drain()
    assert ecfs.verify() == 6


def test_rotation_policy_join_also_verifies():
    """Rotation reshuffles nearly everything on a join, but the epoch
    machinery still converges and verifies."""
    ecfs = _cluster(placement="rotation", n_osds=8)
    ecfs.populate(n_files=2, stripes_per_file=2, fill="random")
    _osd, plan = ecfs.join_osd()
    assert plan.fraction_moved > 0.5
    _run_rebalance(ecfs, plan)
    assert ecfs.placement.balanced()
    ecfs.drain()
    assert ecfs.verify() == 4


def test_joined_osd_heartbeats_and_is_not_declared_failed():
    """A node joining under a live HeartbeatService gets its own sender:
    the monitor must never declare the healthy newcomer dead (which would
    trigger a spurious rebuild in on_failure-wired scenarios)."""
    from repro.cluster import HeartbeatService

    ecfs = _cluster()
    ecfs.populate(n_files=2, stripes_per_file=2, fill="random")
    service = HeartbeatService(ecfs, interval=0.5, timeout=1.6)
    service.start()
    _osd, plan = ecfs.join_osd()
    _run_rebalance(ecfs, plan)
    # run well past the heartbeat timeout: the newcomer keeps beating
    ecfs.env.run(until=ecfs.env.now + 5.0)
    assert 16 not in ecfs.mds.failed
    assert not service.detected
    service.stop()
    assert service._watch not in ecfs.on_osd_joined  # deregistered


# ------------------------------------------------------- catalog scenarios
def test_topo_join_crush_scenario_meets_movement_bound():
    result = ScenarioRunner(get_scenario("topo-join-crush")).run(seed=11)
    assert result.epoch == 1
    assert len(result.rebalance_reports) == 1
    report = result.rebalance_reports[0]
    total_bytes = 144 * (64 << 10)
    assert report.moved_bytes <= 1.5 / 17 * total_bytes
    assert result.rebalance_stats["moved_bytes"] == report.moved_bytes


def test_topo_scenarios_are_seed_deterministic():
    a = ScenarioRunner(get_scenario("topo-join-crush")).run(seed=3)
    b = ScenarioRunner(get_scenario("topo-join-crush")).run(seed=3)
    assert a.digest == b.digest
    assert a.fault_log == b.fault_log


def test_rack_join_one_device_at_a_time_settles_and_verifies():
    """Four devices of one new rack join one by one: each join is its own
    epoch and plan, and the cluster ends balanced and consistent."""
    ecfs = _cluster()
    ecfs.populate(n_files=3, stripes_per_file=4, fill="random")
    for n in range(1, 5):
        _, plan = ecfs.join_osd(rack=99)
        assert ecfs.placement.epoch == n
        report = _run_rebalance(ecfs, plan)
        assert report.moved_blocks == len(plan.moves)
    assert len(ecfs.osds) == 20
    assert ecfs.placement.balanced()
    assert any(ecfs.placement.home_of(b) >= 16 for b in ecfs.known_blocks)
    ecfs.drain()
    assert ecfs.verify() == 12


def test_join_reweight_and_decommission_in_sequence():
    """Join, reweight and decommission, each rebalanced in turn: the
    drained node holds nothing, retires, and every stripe verifies."""
    ecfs = _cluster()
    ecfs.populate(n_files=3, stripes_per_file=4, fill="random")
    _, plan = ecfs.join_osd()
    _run_rebalance(ecfs, plan)
    _run_rebalance(ecfs, ecfs.set_osd_weight(0, 0.5))
    _run_rebalance(ecfs, ecfs.decommission_osd(5))
    assert ecfs.placement.epoch == 3
    assert ecfs.placement.balanced()
    assert not any(ecfs.placement.home_of(b) == 5 for b in ecfs.known_blocks)
    assert ecfs.retire_osd(5)
    ecfs.drain()
    assert ecfs.verify() == 12


def test_rejected_topology_event_advances_no_epoch():
    import pytest

    ecfs = _cluster()
    with pytest.raises(ValueError, match="not in topology"):
        ecfs.set_osd_weight(99, 1.0)
    with pytest.raises(ValueError, match="weight must be positive"):
        ecfs.set_osd_weight(0, 0.0)
    with pytest.raises(ValueError, match="not in topology"):
        ecfs.decommission_osd(99)
    assert ecfs.placement.epoch == 0
    assert len(ecfs.topology) == 16
