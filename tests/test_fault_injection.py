"""Unit tests for the fault-injection primitives (repro.fault + hooks)."""

import numpy as np
import pytest

from repro.cluster import BlockId, ClusterConfig, ECFS, HeartbeatService
from repro.cluster.scrub import Scrubber
from repro.common.errors import IntegrityError
from repro.common.units import Gbps
from repro.net.fabric import NetParams, NetworkFabric
from repro.sim import Environment
from repro.storage.ssd import SSDevice
from repro.storage.base import IOKind, IORequest


def _cluster(method="tsue", **kw):
    defaults = dict(
        n_osds=10, k=4, m=2, block_size=1 << 16, log_unit_size=1 << 17, seed=11
    )
    defaults.update(kw)
    return ECFS(ClusterConfig(**defaults), method=method)


# ------------------------------------------------------------------ network
def _timed_transfer(env, net, src, dst, nbytes):
    t0 = env.now
    proc = env.process(net.transfer(src, dst, nbytes))
    env.run(proc)
    return env.now - t0


def test_nic_degradation_slows_transfer():
    env = Environment()
    net = NetworkFabric(env, NetParams(bandwidth=Gbps(10)))
    net.add_node("a"), net.add_node("b")
    base = _timed_transfer(env, net, "a", "b", 1 << 20)
    net.degrade("a", bw_factor=0.25, extra_latency=1e-3)
    degraded = _timed_transfer(env, net, "a", "b", 1 << 20)
    assert degraded > base * 2
    net.restore("a")
    healthy = _timed_transfer(env, net, "a", "b", 1 << 20)
    assert healthy == pytest.approx(base)


def test_lossy_link_retransmits_deterministically():
    def run(seed):
        env = Environment()
        net = NetworkFabric(env, fault_seed=seed)
        net.add_node("a"), net.add_node("b")
        net.degrade("a", loss_prob=0.5)
        for _ in range(50):
            env.run(env.process(net.transfer("a", "b", 4096)))
        return net.dropped_msgs, env.now

    d1, t1 = run(3)
    d2, t2 = run(3)
    assert (d1, t1) == (d2, t2)  # same seed, same losses
    assert d1 > 0


def test_partition_blocks_until_heal():
    env = Environment()
    net = NetworkFabric(env)
    for n in ("a", "b", "c"):
        net.add_node(n)
    net.partition(("a",))
    done = []

    def xfer():
        yield from net.transfer("a", "b", 4096)
        done.append(env.now)

    env.process(xfer())
    env.run(until=1.0)
    assert not done  # cut link delivers nothing
    assert not net.reachable("a", "b")
    assert net.reachable("b", "c")
    net.heal()
    env.run(until=2.0)
    assert done and done[0] > 1.0


# ------------------------------------------------------------------ storage
def test_disk_slowdown_and_stick():
    env = Environment()
    dev = SSDevice(env, "ssd")
    req = lambda: IORequest(kind=IOKind.READ, offset=0, size=4096)  # noqa: E731

    def timed():
        t0 = env.now
        env.run(env.process(dev.submit(req())))
        return env.now - t0

    base = timed()
    dev.set_slowdown(8.0)
    assert timed() == pytest.approx(base * 8)
    dev.set_slowdown(1.0)
    dev.stick(0.5)
    stuck = timed()
    assert stuck >= 0.5
    assert dev.fault_delay_time >= 0.5
    assert timed() == pytest.approx(base)  # healthy again


def test_blockstore_corruption_flags_and_repair():
    ecfs = _cluster(method="fo")
    ecfs.populate(n_files=1, stripes_per_file=2, fill="random")
    bid = BlockId(1, 0, ecfs.rs.k)  # a parity block
    osd = ecfs.osd_hosting(bid)
    before = osd.store.read(bid)
    osd.store.corrupt(bid, 128, 1024)
    assert bid in osd.store.corrupted
    assert not np.array_equal(osd.store.read(bid), before)

    report = ecfs.env.run(ecfs.env.process(Scrubber(ecfs, repair=True).scrub()))
    assert bid in report.latent_errors
    assert bid in report.repaired
    assert bid not in osd.store.corrupted
    assert np.array_equal(osd.store.read(bid), before)
    assert ecfs.verify() == 2


def test_scrub_detects_without_repair():
    ecfs = _cluster(method="fo")
    ecfs.populate(n_files=1, stripes_per_file=1, fill="random")
    bid = BlockId(1, 0, 0)  # a data block
    ecfs.osd_hosting(bid).store.corrupt(bid, 0, 512)
    report = ecfs.env.run(ecfs.env.process(Scrubber(ecfs, repair=False).scrub()))
    assert bid in report.latent_errors
    assert not report.repaired
    assert report.mismatches  # parity no longer matches the mangled data


# ----------------------------------------------------------- bounce/restart
def test_bounce_restart_replays_buffered_parity_deltas():
    """An update lands while a parity-hosting node is down; the delta is
    buffered and replayed when the node restarts — no rebuild, no loss."""
    ecfs = _cluster()
    files = ecfs.populate(n_files=1, stripes_per_file=1, fill="random")
    (client,) = ecfs.add_clients(1)
    env = ecfs.env
    # bounce the node hosting the first parity block (the DeltaLog home)
    victim = ecfs.osd_hosting(BlockId(files[0], 0, ecfs.rs.k))

    def flow():
        ecfs.stop_osd(victim.idx)
        yield env.process(client.update(files[0], 0, 8192))
        yield env.timeout_us(10_000)
        ecfs.restart_osd(victim.idx)
        yield env.timeout_us(10_000)

    env.run(env.process(flow()))
    ecfs.drain()
    assert ecfs.verify() == 1


def test_restart_requeues_interrupted_recycle():
    """A node dies mid-recycle and comes back: the interrupted unit replays
    idempotently and the cluster still verifies."""
    ecfs = _cluster(log_unit_size=1 << 16)
    files = ecfs.populate(n_files=1, stripes_per_file=2, fill="random")
    (client,) = ecfs.add_clients(1)
    env = ecfs.env

    def flow():
        for i in range(24):
            yield env.process(client.update(files[0], i * 4096, 4096))
        victim = ecfs.osd_hosting(BlockId(files[0], 0, 0))
        ecfs.stop_osd(victim.idx)
        yield env.timeout_us(5_000)
        ecfs.restart_osd(victim.idx)
        yield env.timeout_us(5_000)

    env.run(env.process(flow()))
    ecfs.drain()
    assert ecfs.verify() == 2


# ---------------------------------------------------------------- heartbeat
def test_heartbeat_readmits_restarted_node():
    ecfs = _cluster(method="fo")
    ecfs.populate(n_files=1, stripes_per_file=1, fill="zeros")
    service = HeartbeatService(ecfs, interval=0.5, timeout=2.0)
    service.start()
    env = ecfs.env
    ecfs.stop_osd(3)
    env.run(until=5.0)
    assert [idx for idx, _ in service.detected] == [3]
    assert 3 in ecfs.mds.failed
    # the restart readmits the node at the MDS at once; its heartbeats
    # resume, so the monitor neither readmits nor declares it again
    ecfs.restart_osd(3)
    assert 3 not in ecfs.mds.failed
    env.run(until=10.0)
    assert [idx for idx, _ in service.detected] == [3]
    assert service.recovered == []
    assert 3 not in ecfs.mds.failed


@pytest.mark.parametrize("method", ["fo", "fl", "pl", "plr", "parix", "cord", "tsue"])
def test_bounce_resyncs_parity_for_all_methods(method):
    """Every method survives a parity host bouncing mid-workload: deltas
    missed during the outage are buffered (TSUE) or repaired by the
    degraded-stripe resync on restart — no rebuild, nothing lost."""
    from repro.fault.events import BounceOSD, FaultSchedule, after_ops
    from repro.fault.runner import ScenarioRunner, ScenarioSpec

    spec = ScenarioSpec(
        name=f"bounce-{method}", description="parity-host bounce",
        method=method, n_ops=120,
        faults=FaultSchedule().when(after_ops(30), BounceOSD(osd=0, downtime=0.3)),
    )
    result = ScenarioRunner(spec).run(seed=31)
    assert result.stripes_verified == 4
    assert not result.recovery_reports  # no rebuild happened


def test_rebuild_refuses_corrupted_sources():
    """A latent sector error on a surviving block must not be decoded into
    a rebuilt block: the rebuild picks a clean source instead."""
    from repro.cluster import RecoveryManager

    ecfs = _cluster(method="fo", seed=13)
    ecfs.populate(n_files=1, stripes_per_file=2, fill="random")
    # corrupt a surviving data block of stripe 0, then fail another node
    victim_bid = BlockId(1, 0, 0)
    victim = ecfs.osd_hosting(victim_bid)
    corrupt_bid = BlockId(1, 0, 1)
    ecfs.osd_hosting(corrupt_bid).store.corrupt(corrupt_bid, 0, 4096)
    manager = RecoveryManager(ecfs)
    ecfs.env.run(ecfs.env.process(manager.fail_and_recover(victim.idx)))
    # the rebuilt blocks are byte-correct despite the corrupted neighbour
    import numpy as np

    for block, new_home in ecfs.placement.remapped.items():
        if block.idx < ecfs.rs.k:
            got = ecfs.osds[new_home].store.view(block)
            assert np.array_equal(got, ecfs.oracle.expected(block))


def test_mid_update_crash_clean_failure_semantics():
    """An update interrupted by its primary's death errors without touching
    the oracle (no phantom acked bytes)."""
    ecfs = _cluster()
    files = ecfs.populate(n_files=1, stripes_per_file=1, fill="random")
    (client,) = ecfs.add_clients(1)
    env = ecfs.env
    block, _ = ecfs.mds.locate(files[0], 0, ecfs.rs.k)
    applied_before = ecfs.oracle.applied_updates
    ecfs.crash_osd(ecfs.osd_hosting(block).idx)

    def flow():
        yield env.process(client.update(files[0], 0, 4096))

    with pytest.raises(IntegrityError):
        env.run(env.process(flow()))
    assert ecfs.oracle.applied_updates == applied_before
