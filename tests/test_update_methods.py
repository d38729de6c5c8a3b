"""Correctness matrix: every update method, through the integrity oracle.

Each test replays a workload, drains the method's logs, and verifies that
every stripe's data blocks match the oracle byte-for-byte AND the parity
blocks equal a fresh RS encode — i.e. the update path preserved the
erasure-code invariant end-to-end.
"""

import numpy as np
import pytest

from repro.cluster import BlockId, ClusterConfig, ECFS
from repro.traces import TraceReplayer, generate_trace, tencloud_spec
from repro.update import METHODS
from repro.update.tsue import TSUEOptions

ALL_METHODS = sorted(METHODS)


def _cluster(method, seed=11, method_options=None, **cfg_kw):
    defaults = dict(
        n_osds=10, k=4, m=2, block_size=1 << 16, log_unit_size=1 << 17, seed=seed
    )
    defaults.update(cfg_kw)
    return ECFS(
        ClusterConfig(**defaults), method=method, method_options=method_options or {}
    )


def _replay(ecfs, n_ops=200, n_clients=8, seed=1):
    files = ecfs.populate(n_files=2, stripes_per_file=2, fill="random")
    fsize = ecfs.mds.lookup(files[0]).size
    trace = generate_trace(tencloud_spec(), n_ops, files, fsize, seed=seed)
    result = TraceReplayer(ecfs, trace).run(n_clients=n_clients)
    ecfs.drain()
    return files, result


@pytest.mark.parametrize("method", ALL_METHODS)
def test_stripes_verify_after_replay(method):
    ecfs = _cluster(method)
    _files, result = _replay(ecfs)
    assert result.updates > 0
    assert ecfs.verify() == 4  # 2 files x 2 stripes
    assert ecfs.total_log_debt() == 0


@pytest.mark.parametrize("method", ALL_METHODS)
def test_single_update_roundtrip(method):
    """One update to one offset: data lands, parity updates, time advances."""
    ecfs = _cluster(method, seed=5)
    files = ecfs.populate(n_files=1, stripes_per_file=1, fill="random")
    (client,) = ecfs.add_clients(1)
    ecfs.env.run(ecfs.env.process(client.update(files[0], 12345, 4000)))
    ecfs.drain()
    assert ecfs.verify() == 1
    assert ecfs.metrics.updates.count == 1
    assert ecfs.metrics.latency_stats()["mean"] > 0


@pytest.mark.parametrize("method", ALL_METHODS)
def test_concurrent_same_offset_updates_serialize(method):
    """Hammer one 4K range from many clients: last committed wins and
    parity must still verify (the lost-update hazard)."""
    ecfs = _cluster(method, seed=6)
    files = ecfs.populate(n_files=1, stripes_per_file=1, fill="random")
    clients = ecfs.add_clients(8)

    def one(client):
        for _ in range(5):
            yield ecfs.env.process(client.update(files[0], 8192, 4096))

    procs = [ecfs.env.process(one(c)) for c in clients]
    ecfs.env.run(ecfs.env.all_of(procs))
    ecfs.drain()
    assert ecfs.verify() == 1


@pytest.mark.parametrize("method", ALL_METHODS)
def test_cross_block_boundary_update_clamped(method):
    """An update reaching past a block boundary is clamped to the block."""
    ecfs = _cluster(method, seed=7)
    files = ecfs.populate(n_files=1, stripes_per_file=1, fill="random")
    (client,) = ecfs.add_clients(1)
    bs = ecfs.config.block_size
    ecfs.env.run(ecfs.env.process(client.update(files[0], bs - 2048, 8192)))
    ecfs.drain()
    assert ecfs.verify() == 1


@pytest.mark.parametrize("method", ALL_METHODS)
def test_read_after_update_not_stale(method):
    """Reads served during the log-buffered window must see new data."""
    ecfs = _cluster(method, seed=8)
    files = ecfs.populate(n_files=1, stripes_per_file=1, fill="random")
    (client,) = ecfs.add_clients(1)

    def flow():
        yield ecfs.env.process(client.update(files[0], 0, 4096))
        data = yield ecfs.env.process(client.read(files[0], 0, 4096))
        return data

    data = ecfs.env.run(ecfs.env.process(flow()))
    expected = ecfs.oracle.expected(BlockId(files[0], 0, 0))[:4096]
    assert np.array_equal(data, expected)


def test_tsue_partial_overlap_read_merges_log():
    """TSUE's overlay path: update 4K, read 8K spanning it."""
    ecfs = _cluster("tsue", seed=9)
    files = ecfs.populate(n_files=1, stripes_per_file=1, fill="random")
    (client,) = ecfs.add_clients(1)

    def flow():
        yield ecfs.env.process(client.update(files[0], 4096, 4096))
        data = yield ecfs.env.process(client.read(files[0], 0, 8192))
        return data

    data = ecfs.env.run(ecfs.env.process(flow()))
    expected = ecfs.oracle.expected(BlockId(files[0], 0, 0))[:8192]
    assert np.array_equal(data, expected)


@pytest.mark.parametrize(
    "step,opts", sorted(TSUEOptions.breakdown().items())
)
def test_tsue_breakdown_variants_all_correct(step, opts):
    """Every fig.7 feature-ladder variant must still be byte-correct."""
    ecfs = _cluster("tsue", seed=13, method_options={"options": opts})
    _files, result = _replay(ecfs, n_ops=150)
    assert result.updates > 0
    assert ecfs.verify() == 4


def test_tsue_hdd_variant_correct():
    opts = TSUEOptions.hdd()
    ecfs = _cluster(
        "tsue", seed=14, method_options={"options": opts}, device="hdd"
    )
    _files, _result = _replay(ecfs, n_ops=100, n_clients=4)
    assert ecfs.verify() == 4


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_tsue_works_across_parity_counts(m):
    ecfs = _cluster("tsue", seed=15, m=m, n_osds=12)
    _files, _result = _replay(ecfs, n_ops=120, n_clients=4)
    assert ecfs.verify() == 4


def test_parix_cold_path_ships_old_data():
    """First-touch updates must generate the extra (old-data) transfers."""
    ecfs = _cluster("parix", seed=16)
    files = ecfs.populate(n_files=1, stripes_per_file=1, fill="random")
    (client,) = ecfs.add_clients(1)
    env = ecfs.env
    env.run(env.process(client.update(files[0], 0, 4096)))
    cold_msgs = ecfs.net.total_msgs
    env.run(env.process(client.update(files[0], 0, 4096)))
    warm_msgs = ecfs.net.total_msgs - cold_msgs
    # cold: client->osd + m*(new + nack + old) + ack; warm: client + m*new + ack
    assert cold_msgs > warm_msgs


def test_tsue_update_never_touches_data_block_in_foreground():
    """The two-stage split: foreground update issues NO random block I/O on
    the data OSD — only sequential log appends."""
    ecfs = _cluster("tsue", seed=17)
    files = ecfs.populate(n_files=1, stripes_per_file=1, fill="random")
    (client,) = ecfs.add_clients(1)
    block, _ = ecfs.mds.locate(files[0], 0, ecfs.rs.k)
    osd = ecfs.osd_hosting(block)
    before_reads = osd.device.counters.reads
    ecfs.env.run(ecfs.env.process(client.update(files[0], 0, 4096)))
    # no read happened on the data path (the RMW is deferred to recycle)
    assert osd.device.counters.reads == before_reads


def test_fo_has_zero_log_debt_always():
    ecfs = _cluster("fo", seed=18)
    _replay(ecfs, n_ops=60, n_clients=4)
    assert ecfs.total_log_debt() == 0


def test_pl_accumulates_then_flushes_debt():
    ecfs = _cluster("pl", seed=19)
    files = ecfs.populate(n_files=1, stripes_per_file=1, fill="random")
    (client,) = ecfs.add_clients(1)
    ecfs.env.run(ecfs.env.process(client.update(files[0], 0, 4096)))
    assert ecfs.total_log_debt() > 0  # parity deltas parked in the log
    ecfs.drain()
    assert ecfs.total_log_debt() == 0
    assert ecfs.verify() == 1


# crash times (µs) at which an append is in flight on the victim (seed 21, 150
# tencloud ops, 4 clients): its device I/O still returns after the node died
_LOG_HOST_CRASHES = {
    "fl": (5, 1_100),
    "pl": (5, 600),
    "plr": (5, 700),
    "parix": (5, 1_000),
    "cord": (5, 600),
}
_LOGGED_ON = {
    "fl": lambda m, osd: m._hosted(m._datalog).get(osd.name),
    "pl": lambda m, osd: m._logs.get(osd.name),
    "plr": lambda m, osd: m._hosted(m._pending).get(osd.name),
    "parix": lambda m, osd: m._hosted(m._logs, lambda key: key[0]).get(osd.name),
    "cord": lambda m, osd: m._buffers.get(osd.name),
}


@pytest.mark.parametrize("method", sorted(_LOG_HOST_CRASHES))
def test_flush_fanout_skips_a_dead_log_host_and_nothing_is_left_on_it(method):
    """``on_node_failed`` drops or stashes what a log host held, and an append
    whose I/O was in flight when the host died commits nothing — so the
    per-OSD flush fan-out may skip dead OSDs for every method (PLR and CoRD
    used to start a process for them; PL skipped them and kept the entry
    for ever)."""
    victim_idx, crash_at = _LOG_HOST_CRASHES[method]
    ecfs = _cluster(method, seed=21)
    files = ecfs.populate(n_files=2, stripes_per_file=2, fill="random")
    trace = generate_trace(
        tencloud_spec(), 150, files, ecfs.mds.lookup(files[0]).size, seed=21
    )
    victim = ecfs.osds[victim_idx]

    def crash():
        yield ecfs.env.timeout_us(crash_at)
        ecfs.crash_osd(victim_idx)

    ecfs.env.process(crash())
    result = TraceReplayer(ecfs, trace).run(4, tolerate_failures=True)
    assert result.failures > 0 and result.updates > 0

    handed = []  # the OSDs ``_flush_per_osd`` hands to its job
    flush_per_osd = ecfs.method._flush_per_osd

    def recording_flush(per_osd, job, *args):
        def recording_job(osd, *rest):
            handed.append(osd.name)
            return job(osd, *rest)

        # the plan names the dead host as if it still held work: the
        # liveness filter, not an empty plan entry, must keep it out
        plan = {**per_osd, victim.name: ["stale"]}
        return flush_per_osd(plan, recording_job, *args)

    ecfs.method._flush_per_osd = recording_flush
    ecfs.drain()
    assert handed and victim.name not in handed
    assert not _LOGGED_ON[method](ecfs.method, victim)
    assert ecfs.method.log_debt_bytes(victim) == 0
