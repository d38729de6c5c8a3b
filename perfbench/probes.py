"""Isolated layer probes: fixed synthetic inputs, one layer at a time, no
cluster unless the probe is named after one.  Each probe is run ``REPEATS``
times and reports the median.  Inputs come from a fixed RNG seed: the probes
price a layer's primitive, they are not workloads.
"""

from __future__ import annotations

import functools
import statistics
import time
from typing import Callable

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.cluster.ecfs import ECFS
from repro.cluster.ids import BlockId
from repro.cluster.verify import GroundTruth
from repro.core.index import TwoLevelIndex
from repro.core.intervals import MergePolicy
from repro.core.logpool import LogPool
from repro.core.logunit import LogUnit
from repro.core.recycler import RecyclePlanner
from repro.ec.incremental import data_delta, parity_delta
from repro.ec.rs import RSCode
from repro.fault.digest import cluster_digest
from repro.gf.field import gf_mul_scalar
from repro.net.fabric import NetworkFabric
from repro.placement import PlacementMap, Topology, make_policy
from repro.sim import Environment, Resource, spawn_fanout
from repro.storage.base import IOKind, IORequest
from repro.storage.blockstore import BlockStore
from repro.storage.ssd import SSDevice
from repro.traces.synthetic import generate_trace
from repro.traces.tencloud import tencloud_spec

REPEATS = 5
KIB = 1024
MIB = 1024 * KIB
BLOCK = 256 * KIB


def _wall(fn: Callable[[], object]) -> float:
    t0 = time.perf_counter_ns()
    fn()
    return (time.perf_counter_ns() - t0) / 1e9


def _rng() -> np.random.Generator:
    return np.random.default_rng(0xBE7C4)


def _bytes(n: int) -> np.ndarray:
    return _rng().integers(0, 256, n, dtype=np.uint8)


# ------------------------------------------------------------------- sim
def sim_us_per_event() -> float:
    """Timeout ping-pong on a bare Environment (compare SNIPPETS 1-2)."""
    env = Environment()

    def ping(n):
        for _ in range(n):
            yield env.timeout_us(1)

    for _ in range(2):
        env.process(ping(5_000))
    return 1e6 * _wall(env.run) / env.steps


def sim_us_per_resource_grant() -> float:
    env = Environment()
    res = Resource(env, capacity=1)
    n, procs = 1_500, 4

    def user():
        for _ in range(n):
            with res.request() as grant:
                yield grant
                yield env.timeout_us(1)

    for _ in range(procs):
        env.process(user())
    return 1e6 * _wall(env.run) / (n * procs)


def sim_us_per_fanout_leg() -> float:
    env = Environment()
    rounds, width = 400, 8

    def leg():
        yield env.timeout_us(1)

    def parent():
        for _ in range(rounds):
            yield spawn_fanout(env, [leg() for _ in range(width)])

    env.process(parent())
    return 1e6 * _wall(env.run) / (rounds * width)


# ----------------------------------------------------------- net, storage
def net_us_per_transfer() -> float:
    """4 KiB ``transfer_chain`` legs between four nodes, four senders."""
    env = Environment()
    net = NetworkFabric(env)
    nodes = [f"n{i}" for i in range(4)]
    for node in nodes:
        net.add_node(node)
    n = 1_000

    def sender(i):
        for j in range(n):
            yield net.transfer_chain(nodes[i], nodes[(i + 1 + j % 3) % 4], 4 * KIB)

    for i in range(4):
        env.process(sender(i))
    return 1e6 * _wall(env.run) / (4 * n)


def storage_us_per_io() -> float:
    """``SSDevice.submit``: random 4 KiB overwrites from four submitters."""
    env = Environment()
    dev = SSDevice(env, "ssd0")
    n = 1_000
    offsets = _rng().integers(0, 1 << 20, (4, n)) * 4 * KIB

    def submitter(i):
        for off in offsets[i]:
            yield from dev.submit(
                IORequest(IOKind.WRITE, int(off), 4 * KIB, stream=f"s{i}", overwrite=True)
            )

    for i in range(4):
        env.process(submitter(i))
    return 1e6 * _wall(env.run) / (4 * n)


def storage_blockstore_write_us_4k() -> float:
    store = BlockStore(BLOCK)
    store.create("b", _bytes(BLOCK))
    data = _bytes(4 * KIB)
    offsets = [int(o) * 4 * KIB for o in _rng().integers(0, BLOCK // (4 * KIB), 4_000)]

    def run():
        for off in offsets:
            store.write("b", off, data)

    return 1e6 * _wall(run) / len(offsets)


def storage_cow_promote_us() -> float:
    """First write to a zero (CoW-template) 256 KiB block: the
    ``numpy.zeros`` promotion the ROADMAP suspects."""
    store = BlockStore(BLOCK)
    blocks = list(range(128))
    store.create_zero_many(blocks)
    data = _bytes(4 * KIB)

    def run():
        for b in blocks:
            store.write(b, 0, data)

    return 1e6 * _wall(run) / len(blocks)


# --------------------------------------------------------------- gf, ec
def gf_mul_mbps() -> float:
    buf = _bytes(MIB)
    rounds = 16

    def run():
        for _ in range(rounds):
            gf_mul_scalar(0x57, buf)

    return rounds * MIB / 1e6 / _wall(run)


def ec_encode_mbps() -> float:
    """RS(6,4) ``encode_matrix`` over 6 x 1 MiB of data."""
    rs = RSCode(6, 4)
    data = _bytes(6 * MIB).reshape(6, MIB)
    return 6 * MIB / 1e6 / _wall(lambda: rs.encode_matrix(data))


def ec_delta_us_4k() -> float:
    new, old = _bytes(4 * KIB), _bytes(4 * KIB)[::-1].copy()
    n = 2_000

    def run():
        for _ in range(n):
            parity_delta(0x1D, data_delta(new, old))

    return 1e6 * _wall(run) / n


def ec_decode_mbps() -> float:
    """RS(6,4) decode of two erased data blocks, 256 KiB blocks."""
    rs = RSCode(6, 4)
    data = _bytes(6 * BLOCK).reshape(6, BLOCK)
    stripe = list(data) + rs.encode(list(data))
    available = {i: b for i, b in enumerate(stripe) if i not in (1, 4)}
    return 2 * BLOCK / 1e6 / _wall(lambda: rs.decode(available, (1, 4)))


# ------------------------------------------------------------------ core
def core_append_us_4k() -> float:
    """``LogPool.append`` of 4 KiB records (no recycler: the quota is wide
    enough that no append stalls)."""
    env = Environment()
    n = 1_000
    pool = LogPool(
        env, "probe", unit_size=MIB, policy=MergePolicy.OVERWRITE,
        min_units=2, max_units=8, block_size=BLOCK,
    )
    data = _bytes(4 * KIB)
    targets = [
        (BlockId(0, int(s), 0), int(o) * 4 * KIB)
        for s, o in _rng().integers(0, (16, 64), (n, 2))
    ]

    def appender():
        for block, off in targets:
            yield from pool.append(block, off, data)

    env.process(appender())
    return 1e6 * _wall(env.run) / n


def core_lookup_us() -> float:
    index = TwoLevelIndex(MergePolicy.OVERWRITE, block_size=BLOCK)
    data = _bytes(4 * KIB)
    for b in range(16):
        for page in range(0, 64, 2):  # every other page: half the lookups miss
            index.insert(BlockId(0, b, 0), page * 4 * KIB, data)
    queries = [
        (BlockId(0, int(b), 0), int(p) * 4 * KIB)
        for b, p in _rng().integers(0, (16, 64), (4_000, 2))
    ]

    def run():
        for block, off in queries:
            index.lookup(block, off, 4 * KIB)

    return 1e6 * _wall(run) / len(queries)


def core_plan_us_per_unit() -> float:
    planner = RecyclePlanner(n_lanes=4)
    unit = LogUnit(0, MIB, MergePolicy.OVERWRITE, block_size=BLOCK)
    data = _bytes(4 * KIB)
    for s, o in _rng().integers(0, (24, 64), (240, 2)):
        unit.append(BlockId(0, int(s), 0), int(o) * 4 * KIB, data, now=0.0)
    rounds = 40

    def run():
        for _ in range(rounds):
            planner.plan(unit, record=False)

    return 1e6 * _wall(run) / rounds


# --------------------------------------------- cluster, traces, placement
def cluster_oracle_apply_us_4k() -> float:
    oracle = GroundTruth(BLOCK)
    blocks = [BlockId(0, s, 0) for s in range(8)]
    oracle.touch_many(blocks)
    data = _bytes(4 * KIB)
    targets = [
        (blocks[int(b)], int(o) * 4 * KIB)
        for b, o in _rng().integers(0, (8, 64), (2_000, 2))
    ]

    def run():
        for block, off in targets:
            oracle.apply(block, off, data)

    return 1e6 * _wall(run) / len(targets)


@functools.cache
def _small_cluster() -> ECFS:
    """Built once: verify and digest only read it."""
    ecfs = ECFS(ClusterConfig(seed=1))  # RS(6,4), 16 OSDs, 256 KiB blocks
    ecfs.populate(1, 2, fill="random")
    return ecfs


def cluster_verify_ms_per_stripe() -> float:
    ecfs = _small_cluster()
    return 1e3 * _wall(ecfs.verify) / 2


def fault_digest_ms() -> float:
    ecfs = _small_cluster()
    return 1e3 * _wall(lambda: cluster_digest(ecfs))


def traces_generate_us_per_op() -> float:
    n = 2_000
    return 1e6 * _wall(
        lambda: generate_trace(tencloud_spec(), n, [1, 2, 3, 4, 5, 6], 12 * MIB, seed=1)
    ) / n


def placement_home_of_us() -> float:
    """CRUSH over 1000 OSDs: ``home_of`` for every block of 8 fresh stripes
    (the first block of a stripe pays the straw2 draws, the rest hit the
    policy's stripe cache)."""
    pmap = PlacementMap(make_policy("crush", Topology.flat(1000), 6, 4))
    blocks = [BlockId(1, s, i) for s in range(8) for i in range(10)]

    def run():
        for block in blocks:
            pmap.home_of(block)

    return 1e6 * _wall(run) / len(blocks)


PROBES: dict[str, Callable[[], float]] = {
    "sim.probe_us_per_event": sim_us_per_event,
    "sim.probe_us_per_resource_grant": sim_us_per_resource_grant,
    "sim.probe_us_per_fanout_leg": sim_us_per_fanout_leg,
    "net.probe_us_per_transfer": net_us_per_transfer,
    "storage.probe_us_per_io": storage_us_per_io,
    "storage.probe_blockstore_write_us_4k": storage_blockstore_write_us_4k,
    "storage.probe_cow_promote_us": storage_cow_promote_us,
    "gf.probe_mul_mbps": gf_mul_mbps,
    "ec.probe_encode_mbps": ec_encode_mbps,
    "ec.probe_delta_us_4k": ec_delta_us_4k,
    "ec.probe_decode_mbps": ec_decode_mbps,
    "core.probe_append_us_4k": core_append_us_4k,
    "core.probe_lookup_us": core_lookup_us,
    "core.probe_plan_us_per_unit": core_plan_us_per_unit,
    "cluster.probe_oracle_apply_us_4k": cluster_oracle_apply_us_4k,
    "cluster.probe_verify_ms_per_stripe": cluster_verify_ms_per_stripe,
    "traces.probe_generate_us_per_op": traces_generate_us_per_op,
    "placement.probe_home_of_us": placement_home_of_us,
    "fault.probe_digest_ms": fault_digest_ms,
}


def run_probes(repeats: int = REPEATS) -> dict[str, float]:
    return {
        name: statistics.median(probe() for _ in range(repeats))
        for name, probe in PROBES.items()
    }
