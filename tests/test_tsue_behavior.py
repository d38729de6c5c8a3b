"""Behavioral tests for TSUE's paper-specific mechanisms."""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import BlockId, ClusterConfig, ECFS
from repro.core.intervals import ExtentMap, MergePolicy
from repro.core.logpool import LogPool
from repro.core.logunit import LogUnit, LogUnitState
from repro.gf.field import gf_mul_scalar
from repro.harness import runner
from repro.traces import TraceReplayer, generate_trace, tencloud_spec
from repro.update import tsue
from repro.update.tsue import TSUEOptions


def _cluster(seed=31, options=None, **kw):
    defaults = dict(
        n_osds=10, k=4, m=2, block_size=1 << 16, log_unit_size=1 << 17, seed=seed
    )
    defaults.update(kw)
    opts = {"options": options} if options else {}
    return ECFS(ClusterConfig(**defaults), method="tsue", method_options=opts)


def _replay(ecfs, n_ops=200, n_clients=8, seed=2):
    files = ecfs.populate(n_files=2, stripes_per_file=2, fill="random")
    fsize = ecfs.mds.lookup(files[0]).size
    trace = generate_trace(tencloud_spec(), n_ops, files, fsize, seed=seed)
    return files, TraceReplayer(ecfs, trace).run(n_clients=n_clients)


def test_datalog_replica_receives_every_update():
    ecfs = _cluster()
    files = ecfs.populate(n_files=1, stripes_per_file=1, fill="random")
    (client,) = ecfs.add_clients(1)
    block, _ = ecfs.mds.locate(files[0], 0, ecfs.rs.k)
    rep_idx = ecfs.placement.replica_osd(block)
    ecfs.env.run(ecfs.env.process(client.update(files[0], 0, 4096)))
    rep = ecfs.osds[rep_idx]
    assert ecfs.method.replica_log_bytes[rep.name] == 4096


def test_read_cache_hit_avoids_device():
    ecfs = _cluster()
    files = ecfs.populate(n_files=1, stripes_per_file=1, fill="random")
    (client,) = ecfs.add_clients(1)
    block, _ = ecfs.mds.locate(files[0], 0, ecfs.rs.k)
    osd = ecfs.osd_hosting(block)

    def flow():
        yield ecfs.env.process(client.update(files[0], 0, 4096))
        reads_before = osd.device.counters.reads
        data = yield ecfs.env.process(client.read(files[0], 0, 4096))
        # full hit in the DataLog index: zero device reads on the read path
        # (background recycle may read, but those are tagged reads that can
        # only START after the log unit seals — none sealed yet here)
        return reads_before, osd.device.counters.reads, data

    before, after, data = ecfs.env.run(ecfs.env.process(flow()))
    assert before == after
    assert np.array_equal(data, ecfs.oracle.expected(block)[:4096])


def test_recycled_unit_serves_reads_until_reused():
    """RECYCLED units keep their index as a read cache (§3.2.1)."""
    ecfs = _cluster()
    files = ecfs.populate(n_files=1, stripes_per_file=1, fill="random")
    (client,) = ecfs.add_clients(1)
    ecfs.env.run(ecfs.env.process(client.update(files[0], 0, 4096)))
    ecfs.drain()  # unit recycled, but index retained
    block, _ = ecfs.mds.locate(files[0], 0, ecfs.rs.k)
    pool = ecfs.method._pool(ecfs.osd_hosting(block), "datalog", block)
    assert pool.lookup(block, 0, 4096) is not None


def test_recycled_xor_units_drop_their_index():
    """Only a DataLog unit serves reads once RECYCLED; a DeltaLog or
    ParityLog unit's deltas are never read again, so its recycle drops
    them."""
    ecfs = _cluster(seed=33)
    _replay(ecfs, n_ops=300)
    ecfs.drain()
    recycled = defaultdict(list)
    for osd in ecfs.osds:
        for _p, pool in ecfs.method.built_pools(osd.name):
            for unit in pool.units:
                if unit.state is LogUnitState.RECYCLED:
                    recycled[pool.policy].append(len(unit.index))
    assert recycled[MergePolicy.XOR] and not any(recycled[MergePolicy.XOR])
    assert recycled[MergePolicy.OVERWRITE] and all(recycled[MergePolicy.OVERWRITE])


def test_memory_quota_bounds_pool_growth():
    ecfs = _cluster(options=TSUEOptions(max_units=2), log_unit_size=1 << 16)
    _replay(ecfs, n_ops=300)
    for osd in ecfs.osds:
        for _p, pool in ecfs.method.built_pools(osd.name):
            assert pool.n_units <= 2


def test_small_quota_causes_stalls_large_does_not():
    """Fig. 6a's mechanism: 1-unit pools stall appends behind recycling."""
    small = _cluster(seed=33, options=TSUEOptions(max_units=1))
    _replay(small, n_ops=400)
    big = _cluster(seed=33, options=TSUEOptions(max_units=8))
    _replay(big, n_ops=400)
    assert small.method.stall_stats()["stalls"] > big.method.stall_stats()["stalls"]


def test_residence_stats_populated():
    ecfs = _cluster()
    _replay(ecfs)
    ecfs.drain()
    stats = ecfs.method.residence_stats()
    assert stats["datalog"]["append"] > 0
    assert stats["datalog"]["buffer"] > 0
    assert stats["datalog"]["recycle"] > 0
    # delta layer active (m=2 with deltalog on)
    assert stats["deltalog"]["append"] > 0


def test_no_deltalog_option_skips_layer():
    ecfs = _cluster(options=TSUEOptions(use_deltalog=False))
    _replay(ecfs)
    ecfs.drain()
    assert ecfs.verify() == 4
    stats = ecfs.method.residence_stats()
    assert stats["deltalog"]["append"] == 0
    assert stats["paritylog"]["append"] > 0


def test_hdd_options_replicate_twice():
    opts = TSUEOptions.hdd()
    assert opts.datalog_replicas == 2
    assert not opts.use_deltalog
    ecfs = _cluster(options=opts, device="hdd")
    files = ecfs.populate(n_files=1, stripes_per_file=1, fill="random")
    (client,) = ecfs.add_clients(1)
    ecfs.env.run(ecfs.env.process(client.update(files[0], 0, 4096)))
    total_rep = sum(ecfs.method.replica_log_bytes.values())
    assert total_rep == 2 * 4096


def test_breakdown_ladder_is_cumulative():
    ladder = TSUEOptions.breakdown()
    assert list(ladder) == ["Baseline", "O1", "O2", "O3", "O4", "O5"]
    assert not ladder["Baseline"].datalog_locality
    assert ladder["O1"].datalog_locality and not ladder["O1"].backend_locality
    assert ladder["O3"].use_logpool and ladder["O3"].pools_per_device == 1
    assert ladder["O4"].pools_per_device == 4
    assert ladder["O5"].use_deltalog


def test_locality_merging_reduces_recycle_records():
    """O1's point: merged extents << raw records under a hot workload."""
    ecfs = _cluster(seed=34)
    _replay(ecfs, n_ops=400)
    ecfs.drain()
    planner = ecfs.method.planner
    assert planner.raw_records > 1.2 * planner.planned_extents > 0


def test_log_debt_reported_then_drained():
    ecfs = _cluster(seed=35)
    files = ecfs.populate(n_files=1, stripes_per_file=1, fill="random")
    (client,) = ecfs.add_clients(1)
    ecfs.env.run(ecfs.env.process(client.update(files[0], 0, 4096)))
    assert ecfs.total_log_debt() > 0  # sitting in the active DataLog unit
    ecfs.drain()
    assert ecfs.total_log_debt() == 0


def _built(ecfs) -> set[str]:
    return {
        pool.name
        for osd in ecfs.osds
        for _p, pool in ecfs.method.built_pools(osd.name)
    }


def _spy_appends(monkeypatch) -> set[str]:
    """Names of the pools that took an append, whatever the caller."""
    appended: set[str] = set()
    append = LogPool.append

    def spying(pool, *args, **kw):
        appended.add(pool.name)
        return append(pool, *args, **kw)

    monkeypatch.setattr(LogPool, "append", spying)
    return appended


def _run(ecfs, gen):
    return ecfs.env.run(ecfs.env.process(gen))


def test_wide_cluster_builds_no_pool_before_first_update():
    ecfs = _cluster(n_osds=1000, k=6, m=3)
    assert _built(ecfs) == set()
    assert ecfs.method._recycler_procs == {}
    assert len(ecfs.method.pools) == 1000


def test_replay_builds_exactly_the_pools_appended_to(monkeypatch):
    appended = _spy_appends(monkeypatch)
    ecfs = _cluster()
    _replay(ecfs)
    ecfs.drain()
    assert appended and _built(ecfs) == appended
    # every built pool got its recycler in the same step, and no other did
    procs = ecfs.method._recycler_procs
    assert {f"{o}:{layer}{p}" for o, layer, p in procs} == appended


def test_reads_build_no_pool():
    ecfs = _cluster()
    files = ecfs.populate(n_files=1, stripes_per_file=2, fill="random")
    (client,) = ecfs.add_clients(1)
    block, _ = ecfs.mds.locate(files[0], 0, ecfs.rs.k)

    def flow():
        for off in range(0, 8 * 4096, 4096):
            yield ecfs.env.process(client.read(files[0], off, 4096))
        # a degraded read consults the dead home's DataLog: still no build
        ecfs.crash_osd(ecfs.osd_hosting(block).idx)
        data = yield ecfs.env.process(client.read(files[0], 0, 4096))
        return data

    data = _run(ecfs, flow())
    assert np.array_equal(data, ecfs.oracle.expected(block)[:4096])
    assert _built(ecfs) == set()


def _parity_target(ecfs):
    files = ecfs.populate(n_files=1, stripes_per_file=1, fill="random")
    block, _ = ecfs.mds.locate(files[0], 0, ecfs.rs.k)
    pbid = BlockId(block.file_id, block.stripe, ecfs.rs.k)
    return pbid, ecfs.osd_hosting(pbid)


def test_pool_first_built_on_crashed_node_is_dead_and_drops_delta():
    ecfs = _cluster()
    method = ecfs.method
    pbid, posd = _parity_target(ecfs)
    ecfs.crash_osd(posd.idx)
    assert method._built_pool(posd.name, "paritylog", pbid) is None
    delta = np.full(4096, 7, dtype=np.uint8)
    _run(ecfs, method._paritylog_append(posd, pbid, 0, delta, ("t",)))
    pool = method._built_pool(posd.name, "paritylog", pbid)
    assert pool.dead and pool.appends == 0
    assert not method._pending_parity.get(posd.name)
    assert ("t",) not in method._seen_tokens[posd.name]


def test_pool_first_built_on_bounced_node_buffers_delta_for_restart():
    ecfs = _cluster()
    method = ecfs.method
    pbid, posd = _parity_target(ecfs)
    ecfs.stop_osd(posd.idx)  # a bounce: on_node_failed never runs
    delta = np.full(4096, 7, dtype=np.uint8)
    _run(ecfs, method._paritylog_append(posd, pbid, 0, delta, ("t",)))
    pool = method._built_pool(posd.name, "paritylog", pbid)
    assert not pool.dead and pool.appends == 0
    assert [e[1] for e in method._pending_parity[posd.name]] == [pbid]
    ecfs.restart_osd(posd.idx)
    ecfs.env.run()
    assert pool.appends == 1 and not method._pending_parity.get(posd.name)


def test_joined_node_builds_nothing_until_first_append():
    ecfs = _cluster()
    method = ecfs.method
    pbid, _posd = _parity_target(ecfs)
    osd, _plan = ecfs.join_osd()
    assert list(method.built_pools(osd.name)) == []
    assert not any(name == osd.name for name, _l, _p in method._recycler_procs)
    delta = np.full(4096, 7, dtype=np.uint8)
    _run(ecfs, method._paritylog_append(osd, pbid, 0, delta))
    ((p, pool),) = method.built_pools(osd.name)
    assert p == method._pool_idx(pbid) and pool.appends == 1
    assert (osd.name, "paritylog", p) in method._recycler_procs


def test_pools_iterate_and_stash_in_index_order_not_build_order():
    ecfs = _cluster()
    method = ecfs.method
    osd = ecfs.osds[0]
    by_idx = {}
    for stripe in range(64):
        block = BlockId(0, stripe, 0)
        by_idx.setdefault(method._pool_idx(block), block)
    assert len(by_idx) == method.n_pools == 4

    def append(p):
        block = by_idx[p]
        pool = method._pool(osd, "datalog", block)
        yield from pool.append(block, 0, np.ones(4096, dtype=np.uint8))

    for p in (3, 0, 2):
        _run(ecfs, append(p))
    assert [p for p, _pool in method.built_pools(osd.name)] == [0, 2, 3]
    ecfs.crash_osd(osd.idx)
    assert list(method._stash_data) == [by_idx[0], by_idx[2], by_idx[3]]


@pytest.mark.parametrize("use_deltalog", [True, False])
def test_memory_model_counts_unbuilt_pools_as_one_unit(use_deltalog):
    """The eager model's figure: every (osd, layer, pool) reserves one unit
    from the start, plus the units a built pool grew by."""
    ecfs = _cluster(options=TSUEOptions(use_deltalog=use_deltalog, max_units=8))
    method = ecfs.method
    unit = method.unit_size
    slots = len(ecfs.osds) * (3 if use_deltalog else 2) * method.n_pools
    assert ecfs.method_memory() == method.peak_memory_bytes() == slots * unit
    _replay(ecfs, n_ops=400)
    built = [
        pool for osd in ecfs.osds for _p, pool in method.built_pools(osd.name)
    ]
    assert any(pool.peak_units > 1 for pool in built)
    assert ecfs.method_memory() == (
        slots + sum(pool.n_units - 1 for pool in built)
    ) * unit
    assert method.peak_memory_bytes() == (
        slots + sum(pool.peak_units - 1 for pool in built)
    ) * unit


def test_oracle_commit_order_matches_log_order():
    """Two racing same-address updates: final block equals last log append."""
    ecfs = _cluster(seed=36)
    files = ecfs.populate(n_files=1, stripes_per_file=1, fill="random")
    clients = ecfs.add_clients(2)
    env = ecfs.env
    procs = [
        env.process(clients[i].update(files[0], 0, 4096), name=f"u{i}")
        for i in range(2)
    ]
    env.run(env.all_of(procs))
    ecfs.drain()
    assert ecfs.verify() == 1


# ------------------------------------------------------ read cache vs oracle
@pytest.mark.parametrize("step", ["default", "Baseline", "O1", "O3"])
def test_every_read_cache_hit_matches_the_oracle(monkeypatch, step):
    """The golden ``method/tsue`` and ``tsue-breakdown/Baseline`` / ``O1`` /
    ``O3`` shapes (no faults; Baseline's DataLog and O1's ParityLog do not
    merge): every DataLog read-cache hit returns the committed bytes at
    that instant.  A miss is not checked at return — a read that overlaps
    an in-flight update may return either version."""
    clusters: list[ECFS] = []

    def recording_ecfs(*args, **kw):
        clusters.append(ECFS(*args, **kw))
        return clusters[-1]

    hits, stale = [], []
    lookup = LogPool.lookup

    def checked(pool, block, offset, size):
        hit = lookup(pool, block, offset, size)
        if hit is not None:
            hits.append(block)
            want = clusters[0].oracle.expected(block)[offset : offset + size]
            if not np.array_equal(hit, want):
                stale.append((block, offset, size))
        return hit

    monkeypatch.setattr(runner, "ECFS", recording_ecfs)
    monkeypatch.setattr(LogPool, "lookup", checked)
    options = {} if step == "default" else {
        "options": TSUEOptions.breakdown()[step]
    }
    # the shape of tests/test_golden_digests.py::_experiment_row
    runner.run_experiment(
        runner.ExperimentConfig(
            method="tsue", trace="tencloud", k=4, m=2, n_osds=10,
            n_clients=4, n_ops=150, block_size=1 << 16,
            log_unit_size=1 << 17, n_files=2, stripes_per_file=2, seed=4242,
            verify=True, method_options=options,
        )
    )
    assert len(hits) > 20
    assert stale == []


@pytest.mark.parametrize("step", ["Baseline", "O1", "O5"])
def test_read_returns_the_clients_own_update(step):
    """One client updates 4 KiB at offset 4096 and reads it back: the read
    must return the update, wherever in the log it sits."""
    ecfs = _cluster(options=TSUEOptions.breakdown()[step])
    files = ecfs.populate(n_files=1, stripes_per_file=1, fill="random")
    (client,) = ecfs.add_clients(1)
    block, _ = ecfs.mds.locate(files[0], 0, ecfs.rs.k)
    before = ecfs.oracle.expected(block)[4096:8192].copy()

    def flow():
        yield ecfs.env.process(client.update(files[0], 4096, 4096))
        return (yield ecfs.env.process(client.read(files[0], 4096, 4096)))

    got = ecfs.env.run(ecfs.env.process(flow()))
    want = ecfs.oracle.expected(block)[4096:8192]
    assert not np.array_equal(want, before)
    assert np.array_equal(got, want)


def test_unmerged_records_of_one_range_both_recycle():
    """A Baseline DataLog unit holding two records of one block, offset and
    size recycles both, in append order: the block ends with the second
    record's bytes.  The ordinal ``n`` of the recycle-progress key keeps the
    second record from reading as already applied."""
    ecfs = _cluster(options=TSUEOptions.breakdown()["Baseline"])
    files = ecfs.populate(n_files=1, stripes_per_file=1, fill="random")
    (client,) = ecfs.add_clients(1)
    block, _ = ecfs.mds.locate(files[0], 0, ecfs.rs.k)
    osd = ecfs.osd_hosting(block)
    payloads = []

    def flow():
        for _ in range(2):
            yield ecfs.env.process(client.update(files[0], 4096, 4096))
            payloads.append(ecfs.oracle.expected(block)[4096:8192].copy())

    ecfs.env.run(ecfs.env.process(flow()))
    ((_p, pool),) = ecfs.method.built_pools(osd.name, "datalog")
    unit_records = [(e.start, e.size) for e in pool.active.index.extents(block)]
    assert unit_records == [(4096, 4096)] * 2
    assert not np.array_equal(*payloads)
    ecfs.drain()
    assert np.array_equal(osd.store.read(block, 4096, 4096), payloads[1])
    assert ecfs.verify() == 1


# ------------------------------------------------------ streaming recycle plan
def _eager_plan_delta_forwards(self, unit):
    """The list builder ``TSUE._plan_delta_forwards`` replaced, verbatim: it
    computed every (stripe, parity row) group's products before returning
    the first."""
    items = self.planner.plan(unit)
    # group per stripe for Eq. (5) cross-block merging
    per_stripe: dict[tuple[int, int], list] = defaultdict(list)
    for work in items:
        block = work.block
        per_stripe[(block.file_id, block.stripe)].append((block, work))
    rs = self.ecfs.rs
    out: list[tuple[tuple, BlockId, object]] = []
    occurrences: dict[tuple, int] = defaultdict(int)
    for (file_id, stripe), works in per_stripe.items():
        for j in range(rs.m):
            pbid = BlockId(file_id, stripe, rs.k + j)
            if self.opts.backend_locality:
                merged = ExtentMap(MergePolicy.XOR)
                for block, work in works:
                    coef = self.parity_coef(j, block.idx)
                    for ext in work.extents:
                        merged.insert(ext.start, gf_mul_scalar(coef, ext.data), own=True)
                exts = list(merged.extents())
            else:
                exts = []
                for block, work in works:
                    coef = self.parity_coef(j, block.idx)
                    for ext in work.extents:
                        exts.append(
                            type(ext)(ext.start, gf_mul_scalar(coef, ext.data))
                        )
            for ext in exts:
                base = (pbid, ext.start, ext.size)
                n = occurrences[base]
                occurrences[base] += 1
                out.append((("dx",) + base + (n,), pbid, ext))
    return out


def _deltalog_unit(ecfs, records) -> LogUnit:
    """A DeltaLog unit as a pool of ``ecfs``'s TSUE would build it, holding
    ``records``: (file, stripe, data index, offset, bytes) tuples."""
    unit = LogUnit(
        0,
        1 << 30,
        MergePolicy.XOR,
        ecfs.config.block_size,
        merge=ecfs.method.opts.backend_locality,
    )
    for file_id, stripe, idx, offset, data in records:
        unit.append(BlockId(file_id, stripe, idx), offset, data, now=0.0)
    return unit


def _forwarded(plan) -> list:
    return [(key, pbid, ext.start, bytes(ext.data)) for key, pbid, ext in plan]


_DELTA_RECORDS = st.lists(
    st.tuples(
        st.integers(0, 1),  # file
        st.integers(0, 2),  # stripe
        st.integers(0, 3),  # data index (k = 4)
        st.integers(0, 4096),  # offset: records overlap and abut often
        st.binary(min_size=1, max_size=1024).map(
            lambda b: np.frombuffer(b, dtype=np.uint8)
        ),
    ),
    min_size=1,
    max_size=24,
)


@pytest.mark.parametrize("backend_locality", [True, False])
@given(records=_DELTA_RECORDS)
@settings(max_examples=60, deadline=None)
def test_streaming_plan_matches_the_eager_list(backend_locality, records):
    """On random DeltaLog units the generator yields the eager builder's
    (dedup key, parity block, start, bytes) sequence, merged (O2) or not."""
    ecfs = _cluster(options=TSUEOptions(backend_locality=backend_locality))
    unit = _deltalog_unit(ecfs, records)
    method = ecfs.method
    assert _forwarded(method._plan_delta_forwards(unit)) == _forwarded(
        _eager_plan_delta_forwards(method, unit)
    )


@pytest.mark.parametrize("backend_locality", [True, False])
def test_recycle_multiplies_one_parity_row_before_its_first_forward(
    monkeypatch, backend_locality
):
    """A DeltaLog unit over three stripes, two extents per data block: by
    the recycle's first ParityLog append it has multiplied one (stripe,
    parity row) group's source extents, 2k.  The eager list builder had
    multiplied all 3 x m groups, 6 x 2k, by then."""
    ecfs = _cluster(options=TSUEOptions(backend_locality=backend_locality))
    method, k, m = ecfs.method, ecfs.rs.k, ecfs.rs.m
    (fid,) = ecfs.populate(n_files=1, stripes_per_file=3, fill="zeros")
    unit = _deltalog_unit(
        ecfs,
        [
            (fid, s, i, offset, np.full(512, 1 + s * k + i, dtype=np.uint8))
            for s in range(3)
            for i in range(k)
            for offset in (0, 8192)
        ],
    )
    group = 2 * k
    products: list[int] = []
    at_append: list[int] = []
    append = method._paritylog_append

    def counting_mul(coef, data):
        products.append(coef)
        return gf_mul_scalar(coef, data)

    def spying_append(*args, **kw):
        at_append.append(len(products))
        return append(*args, **kw)

    monkeypatch.setattr(tsue, "gf_mul_scalar", counting_mul)
    monkeypatch.setattr(method, "_paritylog_append", spying_append)
    block = BlockId(fid, 0, 0)
    osd = ecfs.osd_hosting(BlockId(fid, 0, k))  # the stripe's DeltaLog host
    pool = method._pool(osd, "deltalog", block)
    _run(ecfs, method._recycle_deltalog_unit(osd, pool, unit))
    assert at_append[0] <= group, at_append
    # merged (O2): the k blocks' extents at one offset are one parity extent
    assert len(at_append) == 3 * m * (2 if backend_locality else group)
    assert len(products) == 3 * m * group
