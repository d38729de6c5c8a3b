"""The memory plane: zero blocks cost the bytes written to them.

Counts, resident-set deltas and traced allocations, never wall-clock.
The resident-set and drain tests run in a child interpreter so the heap 700
earlier tests left behind cannot serve (and so mask) the allocations being
measured; CI also runs this file as its own step for the same reason.
"""

import json
import mmap
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.cluster.verify import GroundTruth
from repro.common import zeromem
from repro.common.errors import IntegrityError
from repro.common.units import KiB, MiB
from repro.common.zeromem import zero_block, zero_template
from repro.storage.blockstore import Base, BlockStore, SharedRows

BS = 256 * KiB


def _span(arr: np.ndarray) -> tuple[int, int]:
    start = arr.ctypes.data
    return start, start + arr.nbytes


def _assert_disjoint(blocks: list[np.ndarray]) -> None:
    spans = sorted(_span(b) for b in blocks)
    for (_, end), (start, _) in zip(spans, spans[1:]):
        assert end <= start


# ------------------------------------------------------------------ zero_block
@pytest.mark.parametrize("nbytes", [64, 4 * KiB, 5000, BS])
def test_zero_block_is_zeroed_writable_and_page_aligned(nbytes):
    blocks = [zero_block(nbytes) for _ in range(3)]
    for block in blocks:
        assert block.dtype == np.uint8 and block.shape == (nbytes,)
        assert block.flags.writeable
        assert block.ctypes.data % mmap.PAGESIZE == 0
        assert not block.any()
    _assert_disjoint(blocks)


def test_zero_block_rejects_empty_requests():
    for nbytes in (0, -1):
        with pytest.raises(ValueError):
            zero_block(nbytes)
        with pytest.raises(ValueError):
            zero_template(nbytes)


def test_zero_blocks_never_overlap_across_an_arena_rollover():
    """More blocks than one arena holds, plus one request larger than an
    arena: every block is zero, none shares a byte with another, and a write
    to one shows in no neighbour and not in the template."""
    per_arena = zeromem.ARENA_BYTES // MiB
    blocks = [zero_block(MiB) for _ in range(per_arena + 3)]
    blocks.append(zero_block(zeromem.ARENA_BYTES + 5))  # a mapping of its own
    blocks.extend(zero_block(MiB) for _ in range(2))
    _assert_disjoint(blocks)
    assert blocks[per_arena + 3].shape == (zeromem.ARENA_BYTES + 5,)
    for i, block in enumerate(blocks):
        assert block.ctypes.data % mmap.PAGESIZE == 0
        assert not block[:: mmap.PAGESIZE].any() and block[-1] == 0
        block[0] = block[-1] = 1 + i % 255
    for i, block in enumerate(blocks):
        assert block[0] == block[-1] == 1 + i % 255
        assert not block[1:-1:509].any()
    assert not zero_template(MiB).any()


# --------------------------------------------------------------- zero_template
def test_every_store_and_the_oracle_share_one_readonly_template():
    template = zero_template(BS)
    assert zero_template(BS) is template
    assert zero_template(BS // 2) is not template
    assert not template.flags.writeable and not template.any()
    with pytest.raises(ValueError):
        template.flags.writeable = True
    stores = [BlockStore(BS) for _ in range(1000)]
    assert all(store._zero is template for store in stores)
    assert GroundTruth(BS).store._zero is template  # the oracle mirrors in a store

    store = stores[0]
    store.create_zero_many(["b"])
    for view in (store.view("b"), store.read_view("b", 4096, 512)):
        assert np.shares_memory(view, template)
        with pytest.raises(ValueError):
            view.flags.writeable = True
        with pytest.raises(ValueError):
            view[0] = 1


# ------------------------------------------------------------------- promotion
@pytest.mark.parametrize(
    "mutate",
    [
        lambda s: s.write("b", 8, np.full(4, 9, dtype=np.uint8)),
        lambda s: s.xor_in("b", 8, np.full(4, 9, dtype=np.uint8)),
        lambda s: s.corrupt("b", 8, 4),
    ],
    ids=["write", "xor_in", "corrupt"],
)
def test_promotion_leaves_the_template_and_other_stores_zero(mutate):
    first, second = BlockStore(64), BlockStore(64)
    oracle = GroundTruth(64)
    for store in (first, second):
        store.create_zero_many(["b"])
    oracle.touch_many(["b"])
    mutate(first)
    changed = first.view("b")
    assert changed[8:12].all() and not changed[:8].any() and not changed[12:].any()
    assert not np.shares_memory(changed, zero_template(64))
    assert not zero_template(64).any()
    assert np.shares_memory(second.view("b"), zero_template(64))
    assert np.shares_memory(oracle.expected("b"), zero_template(64))


def test_oracle_promotion_leaves_the_stores_zero():
    store, oracle = BlockStore(64), GroundTruth(64)
    store.create_zero_many(["b"])
    oracle.apply("b", 8, np.full(4, 9, dtype=np.uint8))
    expected = oracle.expected("b")
    assert expected[8:12].all() and not expected[:8].any() and not expected[12:].any()
    assert not expected.flags.writeable  # the oracle's reads are views too
    assert not np.shares_memory(expected, zero_template(64))
    assert not zero_template(64).any()
    assert np.shares_memory(store.view("b"), zero_template(64))


@pytest.mark.parametrize("owner", ["store", "oracle"])
def test_write_into_a_populate_view_lands_in_a_delta_not_a_copy(owner):
    """The base stays the populate matrix, the first write carves a zero
    delta holding ``data ^ base`` on the written range only, reads return
    ``base ^ delta`` and the matrix is never written."""
    backing = np.arange(128, dtype=np.uint8).reshape(2, 64)
    backing.flags.writeable = False
    oracle = GroundTruth(64)
    if owner == "oracle":
        store, register, write = oracle.store, oracle.adopt, oracle.apply
    else:
        store = BlockStore(64)
        register, write = store.create_shared, store.write
    base = Base(SharedRows("populate", backing, None), 1)
    register("b", base)
    assert np.shares_memory(store.view("b"), backing)
    write("b", 0, np.zeros(4, dtype=np.uint8))
    assert store.named_base("b")[0] is base  # the base is kept
    delta = store._deltas["b"]
    assert (delta[:4] == [64, 65, 66, 67]).all() and not delta[4:].any()
    view = store.view("b")
    assert not np.shares_memory(view, backing) and not view.flags.writeable
    assert not view[:4].any() and (view[4:] == backing[1, 4:]).all()
    assert (store.read("b", 4) == backing[1, 4:]).all()
    assert (backing[1] == np.arange(64, 128)).all()


def test_out_of_range_corrupt_promotes_nothing():
    store = BlockStore(64)
    store.create_zero_many(["b"])
    with pytest.raises(IntegrityError):
        store.corrupt("b", 60, 10)
    assert np.shares_memory(store.view("b"), zero_template(64))
    assert "b" not in store.corrupted


# ---------------------------------------------------- resident set, child process
linux_only = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/self/statm"
)


def _child(snippet: str) -> dict:
    src_dir = pathlib.Path(__file__).parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    proc = subprocess.run(
        [sys.executable, "-c", snippet],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


_PROMOTE_SNIPPET = """
import gc, hashlib, json
import numpy as np
from repro.common.perf import rss_mb
from repro.storage.blockstore import BlockStore

chunk = np.full(4096, 7, dtype=np.uint8)
stores = [BlockStore(256 * 1024) for _ in range(512)]
for store in stores:
    store.create_zero_many(["b"])
gc.collect()
out = {"start": rss_mb()}
for store in stores:
    store.write("b", 8192, chunk)
out["written"] = rss_mb()
for store in stores:
    hashlib.sha256(store.view("b")).digest()
out["hashed"] = rss_mb()
del stores, store
gc.collect()
out["dropped"] = rss_mb()
print(json.dumps(out))
"""


@linux_only
def test_resident_set_follows_bytes_written_not_blocks_promoted():
    """512 zero blocks of 256 KiB take one 4 KiB write each: 128 MiB
    addressed, 2 MiB written.  Measured + 68 MiB with ``np.zeros``
    promotions, + 2 MiB from the arenas."""
    rss = _child(_PROMOTE_SNIPPET)
    assert rss["written"] - rss["start"] < 32, rss  # a quarter of 128 MiB
    assert rss["hashed"] - rss["written"] < 1, rss  # reads map the zero page
    assert rss["dropped"] - rss["start"] < 8, rss  # arenas went back to the OS


_SHARED_SNIPPET = """
import gc, json
import numpy as np
from repro.cluster.verify import GroundTruth
from repro.common.perf import rss_mb
from repro.storage.blockstore import Base, BlockStore, SharedRows

MiB = 1 << 20
matrix = np.random.default_rng(0).integers(0, 256, (64, MiB), dtype=np.uint8)
matrix.flags.writeable = False
rows = SharedRows("populate", matrix, None)
store, oracle = BlockStore(MiB), GroundTruth(MiB)
for i in range(64):
    store.create_shared(i, Base(rows, i))
    oracle.adopt(i, Base(rows, i))
chunk = np.full(4096, 7, dtype=np.uint8)
gc.collect()
out = {"start": rss_mb()}
for i in range(64):
    store.write(i, 8192, chunk)
    oracle.apply(i, 8192, chunk)
out["written"] = rss_mb()
out["ok"] = all(
    (store.read(i, 8192, 4096) == 7).all()
    and (oracle.expected(i)[8192:12288] == 7).all()
    and (store.read(i, 0, 8192) == matrix[i, :8192]).all()
    for i in range(64)
)
print(json.dumps(out))
"""


@linux_only
def test_writes_into_shared_populate_blocks_cost_the_pages_written():
    """64 blocks of 1 MiB shared from one populate matrix take one 4 KiB
    write each in the store and in the oracle: 0.5 MiB written.  Measured
    + 0.6 MiB with XOR deltas, + 128.5 with whole-block copies."""
    rss = _child(_SHARED_SNIPPET)
    assert rss["ok"], rss
    assert rss["written"] - rss["start"] < 4, rss


_WORKLOAD_SNIPPET = """
import gc, json
import numpy as np
from repro.common.perf import rss_mb
from repro.fault.digest import cluster_digest
from repro.harness.runner import ExperimentConfig, run_experiment

cfg = ExperimentConfig(n_osds=200, n_files=32, stripes_per_file=4, n_ops=300)
block_sized = []
zeros = np.zeros

def counting_zeros(shape, dtype=float, *args, **kwargs):
    if np.prod(shape) * np.dtype(dtype).itemsize == cfg.block_size:
        block_sized[-1] += 1
    return zeros(shape, dtype, *args, **kwargs)

np.zeros = counting_zeros
gc.collect()
out = {"start": rss_mb(), "end": [], "digest": []}
for _ in range(2):
    block_sized.append(0)
    result = run_experiment(cfg, keep_cluster=True)
    out["end"].append(result.perf["rss_mb_end"])
    out["digest"].append(cluster_digest(result.ecfs))
    del result
    gc.collect()
out["block_sized_zeros"] = block_sized
print(json.dumps(out))
"""


@linux_only
def test_wide_zero_fill_run_is_small_and_returns_its_memory():
    """The ``wide_1000osd`` shape at 200 OSDs, twice in one process.
    Measured with ``np.zeros`` promotions: + 144 MiB by the end of run 1,
    + 50 MiB more by the end of run 2 (glibc keeps the freed heap), 779
    block-sized ``np.zeros`` calls a run."""
    out = _child(_WORKLOAD_SNIPPET)
    assert out["digest"][0] == out["digest"][1]
    assert out["end"][0] - out["start"] < 64, out
    assert out["end"][1] - out["end"][0] < 16, out
    assert all(n <= 1 for n in out["block_sized_zeros"]), out


_DRAIN_SNIPPET = """
import json, tracemalloc
from repro.cluster.ecfs import ECFS
from repro.harness.runner import ExperimentConfig, run_experiment

MiB = 1 << 20
drain = ECFS.drain
out = {}

def traced_drain(ecfs):
    start = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    drain(ecfs)
    out.setdefault("start", start / MiB)
    out.setdefault("peak", tracemalloc.get_traced_memory()[1] / MiB)

ECFS.drain = traced_drain
tracemalloc.start()
run_experiment(ExperimentConfig(n_ops=2_000))
print(json.dumps(out))
"""


def test_tsue_drain_holds_one_parity_row_of_deltas_at_a_time():
    """Traced allocations of the default TSUE cell (2,000 Ten-Cloud ops,
    zero fill) over its first drain, in MiB above what was live when the
    drain began: 31.3 when each DeltaLog recycle planned every parity
    row's deltas before forwarding the first, 24.6 with the plan streamed
    one (stripe, parity row) at a time (peaks 40.8 and 34.1)."""
    out = _child(_DRAIN_SNIPPET)
    assert out["peak"] - out["start"] < 28, out
