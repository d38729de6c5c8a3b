"""Additional cross-cutting invariants: EC linearity, placement balance,
device accounting conservation, and method-specific edge behaviours."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ECFS
from repro.ec import RSCode
from repro.gf.field import gf_mul_scalar
from repro.placement import RotationPolicy
from repro.traces import TraceReplayer, generate_trace, tencloud_spec


# ------------------------------------------------------------ EC linearity
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), coef=st.integers(1, 255))
def test_encode_is_linear(seed, coef):
    """encode(a*X + Y) == a*encode(X) + encode(Y) — the property that makes
    delta-based updates sound in the first place."""
    rng = np.random.default_rng(seed)
    rs = RSCode(4, 2)
    xs = [rng.integers(0, 256, 128, dtype=np.uint8) for _ in range(4)]
    ys = [rng.integers(0, 256, 128, dtype=np.uint8) for _ in range(4)]
    combo = [gf_mul_scalar(coef, x) ^ y for x, y in zip(xs, ys)]
    direct = rs.encode(combo)
    separate = [
        gf_mul_scalar(coef, px) ^ py
        for px, py in zip(rs.encode(xs), rs.encode(ys))
    ]
    for a, b in zip(direct, separate):
        assert np.array_equal(a, b)


def test_decode_from_parity_only():
    """All k data blocks lost: parity-only decode (k <= m needed)."""
    rs = RSCode(2, 3)
    rng = np.random.default_rng(9)
    data = [rng.integers(0, 256, 64, dtype=np.uint8) for _ in range(2)]
    parity = rs.encode(data)
    survivors = {2 + j: p for j, p in enumerate(parity)}
    rebuilt = rs.decode(survivors, [0, 1])
    assert np.array_equal(rebuilt[0], data[0])
    assert np.array_equal(rebuilt[1], data[1])


# -------------------------------------------------------- placement balance
def test_placement_spreads_load_evenly():
    """Over many stripes, block counts per OSD stay within 2x of uniform."""
    p = RotationPolicy(n_osds=16, k=6, m=4)
    counts = [0] * 16
    for fid in range(1, 30):
        for s in range(20):
            for osd in p.stripe_osds(fid, s):
                counts[osd] += 1
    mean = sum(counts) / len(counts)
    assert min(counts) > mean / 2
    assert max(counts) < mean * 2


def test_parity_role_rotates_across_stripes():
    """Parity blocks must not pin to fixed nodes (hot-parity imbalance)."""
    p = RotationPolicy(n_osds=16, k=6, m=4)
    parity_nodes = set()
    for fid in range(1, 10):
        for s in range(10):
            parity_nodes.update(p.stripe_osds(fid, s)[6:])  # k = 6
    assert len(parity_nodes) == 16  # every node serves parity somewhere


# ----------------------------------------------------- accounting invariants
def _run(method, n_ops=150):
    # m=4 as in Table 1: the DeltaLog's traffic reduction needs fan-out to
    # beat PL's m-per-update delta shipping
    ecfs = ECFS(
        ClusterConfig(
            n_osds=10, k=4, m=4, block_size=1 << 16, log_unit_size=1 << 17, seed=81
        ),
        method=method,
    )
    files = ecfs.populate(n_files=2, stripes_per_file=2, fill="zeros")
    trace = generate_trace(
        tencloud_spec(), n_ops, files, ecfs.mds.lookup(files[0]).size, seed=5
    )
    TraceReplayer(ecfs, trace).run(n_clients=8)
    ecfs.drain()
    return ecfs


@pytest.mark.parametrize("method", ["fo", "pl", "tsue"])
def test_device_counters_conserve(method):
    """seq + random ops == total ops; overwrites <= writes; busy time > 0."""
    ecfs = _run(method)
    for osd in ecfs.osds:
        c = osd.device.counters
        assert c.seq_ops + c.rand_ops == c.reads + c.writes
        assert c.overwrites <= c.writes
        assert c.overwrite_bytes <= c.write_bytes
        if c.total_ops:
            assert c.busy_time > 0


def test_nic_tx_rx_balance():
    """Every transmitted byte is received by exactly one NIC."""
    ecfs = _run("tsue")
    tx = sum(nic.tx_bytes for nic in ecfs.net.nics.values())
    rx = sum(nic.rx_bytes for nic in ecfs.net.nics.values())
    assert tx == rx == ecfs.net.total_bytes


def test_tsue_network_below_pl_for_same_workload():
    """Table 1's network ordering on an identical workload."""
    pl = _run("pl")
    tsue = _run("tsue")
    assert tsue.net.total_bytes < pl.net.total_bytes


def test_wear_flush_idempotent():
    ecfs = _run("tsue")
    wear = ecfs.osds[0].device.wear
    wear.flush()
    first = wear.page_programs
    wear.flush()
    assert wear.page_programs == first


# -------------------------------------------------------- method edge cases
def test_update_to_every_data_block_of_stripe():
    """Cross-block Eq. (5) merging exercised: all k blocks of one stripe
    updated at the same in-block offset, then verified."""
    ecfs = ECFS(
        ClusterConfig(
            n_osds=10, k=4, m=2, block_size=1 << 16, log_unit_size=1 << 17, seed=82
        ),
        method="tsue",
    )
    files = ecfs.populate(n_files=1, stripes_per_file=1, fill="random")
    (client,) = ecfs.add_clients(1)
    env = ecfs.env
    bs = ecfs.config.block_size

    def flow():
        for i in range(ecfs.rs.k):
            yield env.process(client.update(files[0], i * bs + 8192, 4096))

    env.run(env.process(flow()))
    ecfs.drain()
    assert ecfs.verify() == 1


def test_full_block_update():
    ecfs = ECFS(
        ClusterConfig(
            n_osds=10, k=4, m=2, block_size=1 << 14, log_unit_size=1 << 15, seed=83
        ),
        method="tsue",
    )
    files = ecfs.populate(n_files=1, stripes_per_file=1, fill="random")
    (client,) = ecfs.add_clients(1)
    ecfs.env.run(
        ecfs.env.process(client.update(files[0], 0, ecfs.config.block_size))
    )
    ecfs.drain()
    assert ecfs.verify() == 1


def test_interleaved_reads_and_updates_stay_fresh():
    """Alternating update/read on one address must always read back the
    latest committed payload (no stale window, any method)."""
    for method in ("tsue", "fl", "parix"):
        ecfs = ECFS(
            ClusterConfig(
                n_osds=10, k=4, m=2, block_size=1 << 16,
                log_unit_size=1 << 17, seed=84,
            ),
            method=method,
        )
        files = ecfs.populate(n_files=1, stripes_per_file=1, fill="random")
        (client,) = ecfs.add_clients(1)
        env = ecfs.env

        def flow():
            from repro.cluster.ids import BlockId

            for _ in range(5):
                yield env.process(client.update(files[0], 0, 4096))
                data = yield env.process(client.read(files[0], 0, 4096))
                expected = ecfs.oracle.expected(BlockId(files[0], 0, 0))[:4096]
                assert np.array_equal(data, expected), method

        env.run(env.process(flow()))
