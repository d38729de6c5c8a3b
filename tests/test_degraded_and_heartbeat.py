"""Tests for degraded reads and heartbeat failure detection."""

import numpy as np
import pytest

from repro.cluster import (
    BlockId,
    ClusterConfig,
    ECFS,
    HeartbeatService,
    RecoveryManager,
)
from repro.common.errors import DecodeError
from repro.update import METHODS


def _cluster(method="tsue", **kw):
    defaults = dict(
        n_osds=10, k=4, m=2, block_size=1 << 16, log_unit_size=1 << 17, seed=61
    )
    defaults.update(kw)
    return ECFS(ClusterConfig(**defaults), method=method)


# ---------------------------------------------------------- degraded reads
def test_degraded_read_returns_correct_bytes():
    ecfs = _cluster()
    files = ecfs.populate(n_files=1, stripes_per_file=1, fill="random")
    (client,) = ecfs.add_clients(1)
    env = ecfs.env

    def flow():
        yield env.process(client.update(files[0], 4096, 4096))
        # drain so the update reaches the data block before the node dies
        yield env.process(ecfs.method.flush())
        block, _ = ecfs.mds.locate(files[0], 4096, ecfs.rs.k)
        ecfs.stop_osd(ecfs.osd_hosting(block).idx)
        data = yield env.process(client.read(files[0], 4096, 4096))
        return data

    data = env.run(env.process(flow()))
    block, _ = ecfs.mds.locate(files[0], 4096, ecfs.rs.k)
    expected = ecfs.oracle.expected(block)[4096:8192]
    assert np.array_equal(data, expected)


def test_degraded_read_costs_more_than_normal():
    ecfs = _cluster(method="fo")
    files = ecfs.populate(n_files=1, stripes_per_file=1, fill="random")
    (client,) = ecfs.add_clients(1)
    env = ecfs.env

    def normal():
        yield env.process(client.read(files[0], 0, 4096))

    env.run(env.process(normal()))
    normal_lat = ecfs.metrics.reads.latencies[-1]

    block, _ = ecfs.mds.locate(files[0], 0, ecfs.rs.k)
    ecfs.stop_osd(ecfs.osd_hosting(block).idx)

    def degraded():
        yield env.process(client.read(files[0], 0, 4096))

    env.run(env.process(degraded()))
    degraded_lat = ecfs.metrics.reads.latencies[-1]
    assert degraded_lat > normal_lat  # k fetches + decode beat one fetch


def test_degraded_read_too_many_failures():
    ecfs = _cluster(method="fo", n_osds=12, m=2)
    files = ecfs.populate(n_files=1, stripes_per_file=1, fill="random")
    (client,) = ecfs.add_clients(1)
    # kill three nodes of the stripe: beyond m=2 tolerance
    killed = 0
    for i in range(ecfs.rs.k + ecfs.rs.m):
        bid = BlockId(files[0], 0, i)
        osd = ecfs.osd_hosting(bid)
        if not osd.failed:
            ecfs.stop_osd(osd.idx)
            killed += 1
        if killed == 3:
            break
    with pytest.raises(DecodeError):
        ecfs.env.run(ecfs.env.process(client.read(files[0], 0, 4096)))


# ------------------------------------------------------------- heartbeats
def test_heartbeat_detects_failure_within_timeout():
    ecfs = _cluster(method="fo")
    ecfs.populate(n_files=1, stripes_per_file=1, fill="zeros")
    service = HeartbeatService(ecfs, interval=0.5, timeout=2.0)
    service.start()
    env = ecfs.env
    env.run(until=3.0)
    assert service.detected == []  # everyone healthy
    ecfs.stop_osd(4)
    env.run(until=10.0)
    assert [idx for idx, _t in service.detected] == [4]
    _, t_detect = service.detected[0]
    assert 3.0 < t_detect <= 3.0 + 2.0 + 1.0  # within timeout + one period


def test_heartbeat_triggers_user_callback():
    ecfs = _cluster(method="fo")
    ecfs.populate(n_files=1, stripes_per_file=1, fill="zeros")
    fired = []
    service = HeartbeatService(
        ecfs, interval=0.5, timeout=1.5, on_failure=fired.append
    )
    service.start()
    ecfs.stop_osd(2)
    ecfs.env.run(until=5.0)
    assert fired == [2]


def test_heartbeat_validation():
    ecfs = _cluster(method="fo")
    with pytest.raises(ValueError):
        HeartbeatService(ecfs, interval=1.0, timeout=0.5)


@pytest.mark.parametrize("method", sorted(METHODS))
def test_heartbeat_then_automatic_recovery(method):
    """End to end: an update is acked to a data block on osd0, then osd0 is
    stopped (the method not told).  The heartbeat detects the silence, its
    callback launches recovery — which crashes the stopped node, so the
    method stashes what osd0 still logged — reads continue via the degraded
    path meanwhile, and verify passes afterwards."""
    ecfs = _cluster(method=method)
    files = ecfs.populate(n_files=1, stripes_per_file=2, fill="random")
    (client,) = ecfs.add_clients(1)
    env = ecfs.env
    manager = RecoveryManager(ecfs)
    reports = []

    def recover(idx):
        def job():
            report = yield env.process(manager.fail_and_recover(idx))
            reports.append(report)

        env.process(job(), name="auto-recover")

    service = HeartbeatService(ecfs, interval=0.5, timeout=1.5, on_failure=recover)
    service.start()
    target = next(
        b for b in sorted(ecfs.known_blocks)
        if ecfs.osd_hosting(b).idx == 0 and b.idx < ecfs.rs.k
    )
    offset = (target.stripe * ecfs.rs.k + target.idx) * ecfs.config.block_size
    env.run(env.process(client.update(target.file_id, offset, 4096)))
    ecfs.stop_osd(0)
    env.run(until=15.0)
    assert len(reports) == 1
    assert reports[0].blocks_rebuilt >= 1
    ecfs.drain()
    assert ecfs.verify() == 2


def test_degraded_read_overlays_unrecycled_datalog():
    """The paper's §4.2 story: a node dies with an acked update still in
    its DataLog; degraded reads consult the replica log and return the NEW
    bytes, not the decode of the stale stripe."""
    ecfs = _cluster()
    files = ecfs.populate(n_files=1, stripes_per_file=1, fill="random")
    (client,) = ecfs.add_clients(1)
    env = ecfs.env

    def flow():
        yield env.process(client.update(files[0], 4096, 4096))
        block, _ = ecfs.mds.locate(files[0], 4096, ecfs.rs.k)
        ecfs.stop_osd(ecfs.osd_hosting(block).idx)  # update only in its log
        data = yield env.process(client.read(files[0], 4096, 4096))
        return data

    data = env.run(env.process(flow()))
    block, _ = ecfs.mds.locate(files[0], 4096, ecfs.rs.k)
    expected = ecfs.oracle.expected(block)[4096:8192]
    assert np.array_equal(data, expected)


def test_degraded_overlay_survives_stash_transition():
    """After on_node_failed tears the victim's pools down, the recovery
    stash still answers degraded reads."""
    ecfs = _cluster()
    files = ecfs.populate(n_files=1, stripes_per_file=1, fill="random")
    (client,) = ecfs.add_clients(1)
    env = ecfs.env

    def flow():
        yield env.process(client.update(files[0], 0, 4096))
        block, _ = ecfs.mds.locate(files[0], 0, ecfs.rs.k)
        ecfs.crash_osd(ecfs.osd_hosting(block).idx)  # pools -> stash
        data = yield env.process(client.read(files[0], 0, 4096))
        return data

    data = env.run(env.process(flow()))
    block, _ = ecfs.mds.locate(files[0], 0, ecfs.rs.k)
    expected = ecfs.oracle.expected(block)[:4096]
    assert np.array_equal(data, expected)
