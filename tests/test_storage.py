"""Unit tests for device models, wear accounting, and the block store."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import BlockId, ClusterConfig, ECFS
from repro.common.errors import IntegrityError
from repro.fault.digest import content_digest
from repro.sim import Environment
from repro.storage import (
    BlockStore,
    FlashWearModel,
    HDDevice,
    HDDParams,
    IOKind,
    IORequest,
    SSDevice,
    SSDParams,
)
from repro.storage.base import IOPriority


def _io(env, dev, *reqs):
    def proc():
        for r in reqs:
            yield env.process(dev.submit(r))

    env.run(env.process(proc()))


# ------------------------------------------------------------------- SSD
def test_ssd_sequential_detection():
    env = Environment()
    ssd = SSDevice(env, "s")
    _io(
        env, ssd,
        IORequest(IOKind.WRITE, 0, 4096, stream="log"),
        IORequest(IOKind.WRITE, 4096, 4096, stream="log"),
        IORequest(IOKind.WRITE, 1 << 30, 4096, stream="log"),  # jump: random
    )
    assert ssd.counters.seq_ops == 1
    assert ssd.counters.rand_ops == 2


def test_ssd_streams_tracked_independently():
    env = Environment()
    ssd = SSDevice(env, "s")
    _io(
        env, ssd,
        IORequest(IOKind.WRITE, 0, 4096, stream="a"),
        IORequest(IOKind.WRITE, 1 << 20, 4096, stream="b"),
        IORequest(IOKind.WRITE, 4096, 4096, stream="a"),  # sequential in a
        IORequest(IOKind.WRITE, (1 << 20) + 4096, 4096, stream="b"),
    )
    assert ssd.counters.seq_ops == 2


def test_ssd_random_slower_than_sequential():
    env = Environment()
    ssd = SSDevice(env, "s")
    p = ssd.params
    seq = IORequest(IOKind.READ, 4096, 4096, stream="s")
    rand = IORequest(IOKind.READ, 1 << 28, 4096, stream="r")
    ssd._stream_end["s"] = 4096  # prime sequential history
    assert ssd.estimate(rand) > 3 * ssd.estimate(seq)
    # estimates are integer µs
    assert ssd.estimate(rand) == round((p.rand_read_lat + 4096 / p.seq_read_bw) * 1e6)


def test_ssd_queueing_serializes_beyond_channels():
    env = Environment()
    ssd = SSDevice(env, "s", SSDParams(channels=1))
    t_one = ssd.estimate(IORequest(IOKind.READ, 1 << 28, 4096, stream="x"))
    reqs = [IORequest(IOKind.READ, (i + 7) << 28, 4096, stream=f"r{i}") for i in range(4)]
    done = []

    def proc(r):
        yield env.process(ssd.submit(r))
        done.append(env.now)

    for r in reqs:
        env.process(proc(r))
    env.run()
    # each service time is a whole number of µs
    assert done[-1] == pytest.approx(4 * t_one / 1e6)


def test_ssd_priority_queue_favors_foreground():
    env = Environment()
    ssd = SSDevice(env, "s", SSDParams(channels=1))
    order = []

    def submit(tag, prio, delay):
        yield env.timeout_us(delay)
        yield env.process(
            ssd.submit(
                IORequest(IOKind.READ, hash(tag) % (1 << 30), 4096,
                          stream=tag, priority=prio)
            )
        )
        order.append(tag)

    env.process(submit("hold", IOPriority.FOREGROUND, 0))
    env.process(submit("bg", IOPriority.BACKGROUND, 1))
    env.process(submit("fg", IOPriority.FOREGROUND, 2))
    env.run()
    assert order == ["hold", "fg", "bg"]


def test_counters_overwrite_accounting():
    env = Environment()
    ssd = SSDevice(env, "s")
    _io(
        env, ssd,
        IORequest(IOKind.WRITE, 0, 4096, stream="x", overwrite=True),
        IORequest(IOKind.WRITE, 1 << 20, 8192, stream="x"),
        IORequest(IOKind.READ, 0, 4096, stream="x"),
    )
    c = ssd.counters
    assert c.writes == 2 and c.reads == 1
    assert c.overwrites == 1
    assert c.overwrite_bytes == 4096
    assert c.write_bytes == 4096 + 8192


def test_invalid_requests_rejected():
    with pytest.raises(ValueError):
        IORequest(IOKind.READ, 0, 0)
    with pytest.raises(ValueError):
        IORequest(IOKind.READ, -1, 10)


# ------------------------------------------------------------------- HDD
def test_hdd_seek_dominates_random():
    env = Environment()
    hdd = HDDevice(env, "h")
    p = hdd.params
    rand = IORequest(IOKind.READ, 1 << 30, 4096, stream="r")
    est = hdd.estimate(rand)
    assert est == round((p.avg_seek + p.avg_rotation + 4096 / p.seq_bw) * 1e6)
    # the random/sequential gap on HDD is much larger than on SSD
    hdd._stream_end["s"] = 4096
    seq = IORequest(IOKind.READ, 4096, 4096, stream="s")
    assert est / hdd.estimate(seq) > 50


def test_hdd_single_channel():
    env = Environment()
    hdd = HDDevice(env, "h")
    assert hdd.resource.capacity == 1


# ------------------------------------------------------------------ wear
def test_wear_random_write_programs_full_page():
    w = FlashWearModel(page_size=16384)
    w.record_write(4096, sequential=False, overwrite=False, stream="x")
    assert w.page_programs == 1  # 4K random write burns a full page


def test_wear_sequential_appends_coalesce():
    w = FlashWearModel(page_size=16384)
    for _ in range(4):
        w.record_write(4096, sequential=True, overwrite=False, stream="log")
    assert w.page_programs == 1  # 4 x 4K appends fill exactly one page
    w.record_write(4096, sequential=True, overwrite=False, stream="log")
    w.flush()
    assert w.page_programs == 2  # partial page flushed at end


def test_wear_overwrites_drive_gc():
    w = FlashWearModel(page_size=16384, pages_per_block=256, gc_live_fraction=0.25)
    for _ in range(192):
        w.record_write(4096, sequential=False, overwrite=True, stream="x")
    # 192 invalidated pages / (256 * 0.75) reclaimed per erase = 1 GC erase
    assert w.gc_erases == pytest.approx(1.0)
    assert w.total_erases > w.capacity_erases


def test_wear_lifespan_factor():
    light = FlashWearModel()
    heavy = FlashWearModel()
    light.record_write(16384, sequential=False, overwrite=False, stream="x")
    for _ in range(10):
        heavy.record_write(16384, sequential=False, overwrite=True, stream="x")
    assert heavy.total_erases / light.total_erases > 5  # light lasts 5x longer


def test_wear_invalid_size():
    with pytest.raises(ValueError):
        FlashWearModel().record_write(0, sequential=False, overwrite=False)


# ------------------------------------------------------------- block store
def test_blockstore_roundtrip():
    bs = BlockStore(1024)
    data = np.arange(1024, dtype=np.uint8)
    bs.create("b", data)
    assert np.array_equal(bs.read("b"), data)
    assert np.array_equal(bs.read("b", 100, 10), data[100:110])


def test_blockstore_write_and_xor():
    bs = BlockStore(64)
    bs.write("b", 10, np.full(4, 5, dtype=np.uint8))
    bs.xor_in("b", 10, np.full(4, 3, dtype=np.uint8))
    assert (bs.read("b", 10, 4) == (5 ^ 3)).all()


def test_blockstore_bounds_checked():
    bs = BlockStore(64)
    bs.create("b")
    with pytest.raises(IntegrityError):
        bs.read("b", 60, 10)
    with pytest.raises(IntegrityError):
        bs.write("b", -1, np.ones(4, dtype=np.uint8))
    # a block nothing was written to is bounds-checked like any other
    with pytest.raises(IntegrityError):
        bs.read("missing", 60, 10)
    with pytest.raises(IntegrityError):
        bs.read_view("missing", -1, 4)


def test_blockstore_absent_block_reads_as_zeros_and_stays_absent():
    bs = BlockStore(64)
    for got in (
        bs.read("missing"),
        bs.read("missing", 8, 4),
        bs.read_view("missing", 8, 4),
        bs.view("missing"),
    ):
        assert got.dtype == np.uint8 and not got.any()
    assert bs.read("missing").shape == bs.view("missing").shape == (64,)
    bs.read("missing")[0] = 1  # a read is the caller's own copy, as ever
    for view in (bs.view("missing"), bs.read_view("missing")):
        with pytest.raises(ValueError):
            view[0] = 1
    # reading materializes nothing: the digest must still tell a block that
    # was never written from one that holds zeros
    assert "missing" not in bs and len(bs) == 0 and bs.nbytes() == 0
    with pytest.raises(IntegrityError):
        bs.corrupt("missing", 0, 4)
    bs.xor_in("missing", 8, np.full(4, 9, dtype=np.uint8))
    assert "missing" in bs and (bs.read("missing", 8, 4) == 9).all()


def test_content_digest_tells_absent_from_zero():
    def populated():
        ecfs = ECFS(ClusterConfig(n_osds=4, k=2, m=1, block_size=4096), method="fo")
        ecfs.populate(n_files=1, stripes_per_file=1, fill="zeros")
        return ecfs

    with_zeros, absent = populated(), populated()
    bid = BlockId(1, 1, 0)  # a stripe past the one populate wrote
    for ecfs in (with_zeros, absent):
        ecfs.known_blocks.add(bid)
    with_zeros.osd_hosting(bid).store.create_zero_many([bid])
    store = absent.osd_hosting(bid).store
    assert bid not in store and not store.read(bid).any()
    assert content_digest(absent) != content_digest(with_zeros)
    store.create_zero_many([bid])
    assert content_digest(absent) == content_digest(with_zeros)


def test_blockstore_put_lands_a_whole_block_over_anything():
    backing = np.arange(128, dtype=np.uint8).reshape(2, 64)
    bs = BlockStore(64)
    bs.create_shared("b", backing[1])

    def no_promotion(block_id):
        raise AssertionError(f"put promoted {block_id!r} before replacing it")

    bs._writable = no_promotion
    sevens = np.full(64, 7, dtype=np.uint8)
    bs.put("b", sevens)
    sevens[0] = 1  # copied in, like create()
    assert (bs.read("b") == 7).all()
    assert not np.shares_memory(bs.view("b"), backing)
    assert (backing[1] == np.arange(64, 128)).all()
    # first write and rewrite are the same call; own=True adopts the array
    mine = np.full(64, 3, dtype=np.uint8)
    bs.put("new", mine, own=True)
    assert np.shares_memory(bs.view("new"), mine) and len(bs) == 2
    bs.put("new", np.zeros(64, dtype=np.uint8))
    assert not bs.read("new").any()
    # a wrong-sized block is refused and what was there stays
    with pytest.raises(IntegrityError):
        bs.put("b", np.zeros(8, dtype=np.uint8))
    assert (bs.read("b") == 7).all()


# ------------------------------------------------------------ generations
_ONES = np.ones(64, dtype=np.uint8)
#: mutator -> (set-up giving block "b" a state, the mutation)
_MUTATORS = {
    "write": (
        lambda s: s.create_zero_many(["b"]),
        lambda s: s.write("b", 0, _ONES[:4]),
    ),
    "write-over-shared": (
        lambda s: s.create_shared("b", _ONES),
        lambda s: s.write("b", 0, _ONES[:4]),
    ),
    "xor_in": (lambda s: s.create("b", _ONES), lambda s: s.xor_in("b", 4, _ONES[:4])),
    "corrupt": (lambda s: s.create_shared("b", _ONES), lambda s: s.corrupt("b", 8, 4)),
    "put": (lambda s: s.create("b", _ONES), lambda s: s.put("b", _ONES)),
    "create": (lambda s: None, lambda s: s.create("b", _ONES)),
    "create_shared": (lambda s: None, lambda s: s.create_shared("b", _ONES)),
}


@pytest.mark.parametrize("mutator", sorted(_MUTATORS))
def test_blockstore_every_mutator_changes_the_generation(mutator):
    """The parity-clean record trusts equal generations to mean equal
    bytes, so every mutation — the same bytes rewritten included — gives
    the block a stamp it never had (never 0, the zeros stamp)."""
    setup, mutate = _MUTATORS[mutator]
    store = BlockStore(64)
    setup(store)
    before = store.generation("b")
    mutate(store)
    after = store.generation("b")
    assert after != before
    assert after != 0


def test_blockstore_readers_leave_the_generation_alone():
    store = BlockStore(64)
    store.create("owned", _ONES)
    store.create_shared("shared", _ONES)
    store.write("shared", 0, _ONES[:4])  # a base with a delta
    for bid in ("owned", "shared"):
        gen = store.generation(bid)
        store.read(bid)
        store.read(bid, 8, 4)
        store.view(bid)
        store.read_view(bid, 4, 8)
        assert store.generation(bid) == gen != 0


def test_blockstore_zero_content_never_written_is_generation_0():
    store = BlockStore(64)
    assert store.generation("absent") == 0
    store.create("zero")
    store.create_zero_many(["z1", "z2"])
    assert [store.generation(b) for b in ("zero", "z1", "z2")] == [0, 0, 0]
    store.read("absent")  # reads materialize nothing
    assert store.generation("absent") == 0 and "absent" not in store


def test_two_stores_never_share_a_nonzero_generation():
    a, b = BlockStore(64), BlockStore(64)
    stamps = []
    for bid in range(8):
        for store in (a, b):
            store.create(bid, _ONES)  # the same id and bytes in both
            store.xor_in(bid, 0, _ONES[:1])
            stamps.append(store.generation(bid))
    assert 0 not in stamps and len(set(stamps)) == len(stamps)


def test_blockstore_create_twice_rejected():
    bs = BlockStore(16)
    bs.create("b")
    with pytest.raises(IntegrityError):
        bs.create("b")


def test_blockstore_view_readonly():
    bs = BlockStore(16)
    bs.create("b")
    view = bs.view("b")
    with pytest.raises(ValueError):
        view[0] = 1


def test_blockstore_wrong_size_create():
    bs = BlockStore(16)
    with pytest.raises(IntegrityError):
        bs.create("b", np.zeros(8, dtype=np.uint8))


# ------------------------------------------------- shared bases, XOR deltas
_MODEL_BS = 256
_SHARED, _ZERO, _ABSENT = 0, 3, 4  # blocks 0-2 shared, 3 zero template, 4 absent
_OPS = ("write", "xor_in", "corrupt", "put", "read", "read_view", "view")


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_blockstore_over_a_readonly_base_matches_a_byte_model(data):
    """Random ``write`` / ``xor_in`` / ``corrupt`` / ``put`` / reads on a
    store whose blocks start as views of one read-only matrix
    (plus a zero-template block and an absent one), against plain numpy
    arrays.  After every step the contents, the membership and
    ``corrupted`` agree, the matrix is still its pristine self, and a
    generation seen again names the same bytes (0 names zeros)."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    matrix = rng.integers(0, 256, (_ZERO, _MODEL_BS), dtype=np.uint8)
    matrix.flags.writeable = False
    pristine = matrix.copy()
    zeros = np.zeros(_MODEL_BS, dtype=np.uint8)
    store = BlockStore(_MODEL_BS)
    model = {b: matrix[b].copy() for b in range(_ZERO)}
    for b in range(_ZERO):
        store.create_shared(b, matrix[b])
    store.create_zero_many([_ZERO])
    model[_ZERO] = zeros.copy()
    corrupted: set[int] = set()
    content_of = {0: zeros.tobytes()}  # generation -> the bytes it named
    for _ in range(data.draw(st.integers(1, 30), label="steps")):
        op = data.draw(st.sampled_from(_OPS), label="op")
        b = data.draw(st.integers(_SHARED, _ABSENT), label="block")
        off = data.draw(st.integers(0, _MODEL_BS - 1), label="offset")
        size = data.draw(st.integers(1, _MODEL_BS - off), label="size")
        payload = rng.integers(0, 256, size, dtype=np.uint8)
        want = model.get(b, zeros).copy()
        if op == "write":
            store.write(b, off, payload)
            want[off : off + size] = payload
            model[b] = want
        elif op == "xor_in":
            store.xor_in(b, off, payload)
            want[off : off + size] ^= payload
            model[b] = want
        elif op == "corrupt" and b not in model:
            with pytest.raises(IntegrityError):
                store.corrupt(b, off, size)
        elif op == "corrupt":
            store.corrupt(b, off, size)
            want[off : off + size] ^= 0xA5
            model[b] = want
            corrupted.add(b)
        elif op == "put":
            block = rng.integers(0, 256, _MODEL_BS, dtype=np.uint8)
            model[b] = block.copy()
            store.put(b, block, own=data.draw(st.booleans(), label="own"))
        elif op == "read":
            got = store.read(b, off, size)
            assert np.array_equal(got, want[off : off + size])
            got ^= 0xFF  # the caller's own copy: the store does not see it
        else:
            if op == "view":
                off, size = 0, _MODEL_BS
                got = store.view(b)
            else:
                got = store.read_view(b, off, size)
            assert not got.flags.writeable
            assert np.array_equal(got, want[off : off + size])
        for block in range(_SHARED, _ABSENT + 1):
            assert np.array_equal(store.view(block), model.get(block, zeros))
            content = model.get(block, zeros).tobytes()
            assert content_of.setdefault(store.generation(block), content) == content
        assert set(store) == set(model)  # a read materializes nothing
        assert store.corrupted == corrupted
        assert np.array_equal(matrix, pristine)
