"""Tests for placement, MDS, OSD primitives, and the ECFS facade."""

import ast
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    BlockId, CPUCosts, ClusterConfig, ECFS,
)
import repro
from repro.common.errors import ConfigError, IntegrityError
from repro.common.randbytes import uniform_bytes
from repro.placement import RotationPolicy
from repro.storage.base import IOKind


def _small_config(**kw):
    defaults = dict(n_osds=10, k=4, m=2, block_size=1 << 16, log_unit_size=1 << 17)
    defaults.update(kw)
    return ClusterConfig(**defaults)


# ------------------------------------------------------------- placement
def test_stripe_blocks_on_distinct_osds():
    p = RotationPolicy(n_osds=16, k=6, m=4)
    for fid in range(5):
        for s in range(5):
            osds = p.stripe_osds(fid, s)
            assert len(set(osds)) == 10


def test_placement_deterministic():
    p = RotationPolicy(16, 6, 4)
    b = BlockId(3, 7, 2)
    assert p.osd_of(b) == p.osd_of(BlockId(3, 7, 2))


def test_replica_osd_not_in_stripe():
    p = RotationPolicy(16, 6, 4)
    b = BlockId(1, 0, 0)
    rep = p.replica_osd(b)
    assert rep not in set(p.stripe_osds(1, 0))


def test_replica_osd_full_width_falls_back_to_neighbour():
    p = RotationPolicy(10, 6, 4)  # stripe covers every node
    b = BlockId(1, 0, 2)
    assert p.replica_osd(b) == (p.osd_of(b) + 1) % 10


def test_parity_osds_match_block_indices():
    p = RotationPolicy(16, 6, 4)
    assert p.stripe_osds(2, 3)[6:] == [p.osd_of(BlockId(2, 3, 6 + j)) for j in range(4)]


def test_block_idx_beyond_the_last_parity_block_rejected():
    p = RotationPolicy(16, 6, 4)
    assert p.osd_of(BlockId(1, 0, 9)) == p.stripe_osds(1, 0)[9]
    with pytest.raises(ValueError, match="outside stripe width"):
        p.osd_of(BlockId(1, 0, 10))


def test_placement_needs_enough_nodes():
    with pytest.raises(ValueError):
        RotationPolicy(5, 4, 2)


def test_tsue_pool_index_stable_and_bounded():
    tsue = ECFS(_small_config(), method="tsue").method
    assert tsue.n_pools == 4
    for i in range(50):
        b = BlockId(1, i, i % 6)
        assert 0 <= tsue._pool_idx(b) < 4
        assert tsue._pool_idx(b) == tsue._pool_idx(b)


# ------------------------------------------------------------------ MDS
def test_mds_locate():
    cfg = _small_config()
    ecfs = ECFS(cfg, method="fo")
    meta = ecfs.mds.create_file(cfg.k * cfg.block_size * 2)
    block, off = ecfs.mds.locate(meta.file_id, cfg.block_size + 100, cfg.k)
    assert block == BlockId(meta.file_id, 0, 1)
    assert off == 100
    block, _ = ecfs.mds.locate(meta.file_id, cfg.k * cfg.block_size, cfg.k)
    assert block.stripe == 1


def test_mds_bounds():
    ecfs = ECFS(_small_config(), method="fo")
    meta = ecfs.mds.create_file(1 << 16)
    with pytest.raises(IntegrityError):
        ecfs.mds.locate(meta.file_id, 1 << 20, 4)
    with pytest.raises(IntegrityError):
        ecfs.mds.lookup(999)


def test_mds_heartbeat_failure_detection():
    ecfs = ECFS(_small_config(), method="fo")
    failed = []
    ecfs.mds.on_failure = failed.append
    ecfs.mds.heartbeat(0, now=0.0)
    ecfs.mds.heartbeat(1, now=4.0)
    assert ecfs.mds.check_liveness(now=6.0) == [0]
    assert failed == [0]
    assert ecfs.mds.check_liveness(now=6.5) == []  # not re-reported


# ------------------------------------------------------------------ OSD
def test_osd_block_io_bounds():
    ecfs = ECFS(_small_config(), method="fo")
    osd = ecfs.osds[0]
    with pytest.raises(IntegrityError):
        list(osd.io_block(IOKind.READ, BlockId(1, 0, 0), 0, 1 << 20))


def test_osd_log_append_is_sequential():
    ecfs = ECFS(_small_config(), method="fo")
    osd = ecfs.osds[0]

    def appends():
        yield from osd.io_log_append("mylog", 4096)
        yield from osd.io_log_append("mylog", 4096)
        yield from osd.io_log_append("mylog", 4096)

    ecfs.env.run(ecfs.env.process(appends()))
    assert osd.device.counters.seq_ops == 2  # first op primes the stream


def test_osd_failure_blocks_io():
    ecfs = ECFS(_small_config(), method="fo")
    osd = ecfs.osds[0]
    ecfs.stop_osd(osd.idx)
    with pytest.raises(IntegrityError):
        list(osd.io_log_append("log", 4096))


#: the ``.failed`` writes allowed outside ECFS: each class's own
#: initialiser (``OSD.failed`` starts False, ``MDS.failed`` is its set of
#: declared-failed indices)
_FAILED_INITIALISERS = {("osd.py", "OSD"), ("mds.py", "MDS")}


def _writes_failed(node: ast.AST) -> bool:
    """True if ``node`` assigns an attribute named ``failed`` (plain,
    annotated, augmented, unpacked or through ``setattr``)."""
    if isinstance(node, ast.Assign):
        targets = [t for target in node.targets for t in ast.walk(target)]
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setattr":
        return any(isinstance(a, ast.Constant) and a.value == "failed" for a in node.args)
    else:
        return False
    return any(isinstance(t, ast.Attribute) and t.attr == "failed" for t in targets)


def _failed_writes(path: pathlib.Path) -> list[str]:
    """``file:line`` of every write of a ``failed`` attribute in ``path``
    outside the allowed initialisers."""
    tree = ast.parse(path.read_text(), str(path))
    allowed: set[int] = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and (path.name, cls.name) in _FAILED_INITIALISERS:
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                    allowed |= {id(n) for n in ast.walk(fn)}
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if id(node) not in allowed and _writes_failed(node)
    ]


def test_only_ecfs_writes_osd_failed():
    """Node liveness has one owner: ``ECFS.crash_osd`` / ``stop_osd`` /
    ``restart_osd`` are the only writers of ``OSD.failed`` in the package
    and the examples, so no path can take a node down behind the update
    method's back."""
    src = pathlib.Path(repro.__file__).parent
    examples = pathlib.Path(__file__).resolve().parent.parent / "examples"
    ecfs = src / "cluster" / "ecfs.py"
    paths = sorted(src.rglob("*.py")) + sorted(examples.glob("*.py"))
    assert ecfs in paths and any(p.parent == examples for p in paths)
    writes = [w for path in paths if path != ecfs for w in _failed_writes(path)]
    assert not writes, writes
    assert _failed_writes(ecfs)  # the guard sees the owner's own writes


#: BlockStore internals: the block, delta and generation dicts, and the one
#: path a mutation takes (it stamps the generation)
_STORE_INTERNALS = {"_blocks", "_deltas", "_gens", "_writable"}


def _store_internal_uses(path: pathlib.Path) -> list[str]:
    """``file:line`` of every attribute access (or ``getattr``/``setattr``
    by name) of a :data:`_STORE_INTERNALS` name in ``path``."""
    tree = ast.parse(path.read_text(), str(path))
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _STORE_INTERNALS:
            uses.append(f"{path.name}:{node.lineno}")
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
            "getattr", "setattr", "delattr"
        ):
            if any(
                isinstance(a, ast.Constant) and a.value in _STORE_INTERNALS
                for a in node.args
            ):
                uses.append(f"{path.name}:{node.lineno}")
    return uses


def test_only_blockstore_touches_its_bytes_and_generations():
    """The parity-clean record trusts a block's generation to change with
    its bytes, so nothing in the package but ``storage/blockstore.py``
    reaches the block, delta or generation dicts or calls ``_writable``: a
    mutation that bypassed the stamp cannot land unseen."""
    src = pathlib.Path(repro.__file__).parent
    blockstore = src / "storage" / "blockstore.py"
    paths = sorted(src.rglob("*.py"))
    assert blockstore in paths
    uses = [u for path in paths if path != blockstore for u in _store_internal_uses(path)]
    assert not uses, uses
    assert _store_internal_uses(blockstore)  # the guard sees the owner's own


def _byte_draws(tree: ast.AST) -> list[int]:
    """Line of every ``.integers(0, 256, ...)`` call in ``tree`` (``low``
    and ``high`` positional or by keyword, or ``integers(256, ...)``)."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or getattr(node.func, "attr", None) != "integers":
            continue
        bounds = dict(zip(("low", "high"), node.args))
        bounds.update((kw.arg, kw.value) for kw in node.keywords)
        values = {
            name: getattr(bounds.get(name), "value", None) for name in ("low", "high")
        }
        if "high" not in bounds:  # integers(high) draws from [0, high)
            values = {"low": 0, "high": values["low"]}
        if (values["low"], values["high"]) == (0, 256):
            lines.append(node.lineno)
    return lines


def test_every_byte_draw_goes_through_uniform_bytes():
    """Random payloads and random-fill blocks have one path,
    ``common.randbytes.uniform_bytes``, whose bytes and generator state
    ``tests/test_randbytes.py`` pins to ``Generator.integers(0, 256, ...)``.
    A draw that calls ``integers`` itself is numpy's per-byte fill again."""
    src = pathlib.Path(repro.__file__).parent
    paths = sorted(src.rglob("*.py"))
    assert src / "common" / "randbytes.py" in paths
    draws = [
        f"{path.relative_to(src)}:{line}"
        for path in paths
        for line in _byte_draws(ast.parse(path.read_text(), str(path)))
    ]
    assert not draws, draws
    for call in (
        "rng.integers(0, 256, n, dtype=np.uint8)",
        "rng.integers(256, size=n, dtype=np.uint8)",
        "rng.integers(low=0, high=256, size=(2, 3))",
    ):
        assert _byte_draws(ast.parse(call)), call  # the guard sees each spelling
    assert not _byte_draws(ast.parse("rng.integers(0, 10)"))


def test_block_addr_stable():
    ecfs = ECFS(_small_config(), method="fo")
    osd = ecfs.osds[0]
    a1 = osd.block_addr(BlockId(1, 0, 0))
    a2 = osd.block_addr(BlockId(1, 0, 1))
    assert a1 != a2
    assert osd.block_addr(BlockId(1, 0, 0)) == a1


# ----------------------------------------------------------------- ECFS
def test_config_validation():
    with pytest.raises(ConfigError):
        ClusterConfig(n_osds=8, k=6, m=4).validate()
    with pytest.raises(ConfigError):
        ClusterConfig(block_size=0).validate()
    with pytest.raises(ConfigError):
        ClusterConfig(device="tape").validate()


@given(
    nbytes=st.integers(0, 4 << 20), terms=st.integers(1, 8), times=st.integers(1, 4)
)
@settings(deadline=None)
def test_cpu_charges_are_the_seconds_formulas_rounded_once(nbytes, terms, times):
    """Every CPU charge is its float-seconds formula put on the µs grid in
    one rounding, so a caller yields exactly the tick it always did."""
    costs = CPUCosts()
    assert costs.xor(nbytes) == round((1e-6 + nbytes * 0.1e-9) * 1e6)
    assert costs.gf_mul(nbytes, terms) == round((1e-6 + nbytes * 0.4e-9 * terms) * 1e6)
    assert costs.gf_mul(nbytes, terms, times) == round(
        (1e-6 + nbytes * 0.4e-9 * terms) * times * 1e6
    )


def test_populate_random_creates_consistent_stripes():
    ecfs = ECFS(_small_config(), method="fo")
    ecfs.populate(n_files=1, stripes_per_file=2, fill="random")
    assert ecfs.verify() == 2
    assert len(ecfs.known_blocks) == 2 * (4 + 2)


@pytest.mark.parametrize("fill", ["random", "zeros"])
def test_populate_places_every_block_on_its_osd(fill):
    """Populate stands in for the full-stripe write: each of a stripe's k+m
    blocks lands on the OSD placement names for it, and nowhere else."""
    ecfs = ECFS(_small_config(), method="fo")
    ecfs.populate(n_files=2, stripes_per_file=2, fill=fill)
    for block in ecfs.known_blocks:
        holders = [osd.idx for osd in ecfs.osds if block in osd.store]
        assert holders == [ecfs.placement.home_of(block)]
    assert sum(len(osd.store) for osd in ecfs.osds) == len(ecfs.known_blocks)


def test_populated_file_is_written_at_every_offset():
    """Traces replay onto pre-written files: every byte offset of a
    populated file locates a block that already holds data."""
    cfg = _small_config()
    ecfs = ECFS(cfg, method="fo")
    (fid,) = ecfs.populate(n_files=1, stripes_per_file=3, fill="random")
    size = ecfs.mds.lookup(fid).size
    assert size == 3 * cfg.k * cfg.block_size
    for offset in range(0, size, cfg.block_size // 2):
        block, _ = ecfs.mds.locate(fid, offset, cfg.k)
        assert block in ecfs.known_blocks
        assert block in ecfs.osd_hosting(block).store


def test_populate_zeros_fast_path():
    ecfs = ECFS(_small_config(), method="fo")
    ecfs.populate(n_files=1, stripes_per_file=1, fill="zeros")
    assert ecfs.verify() == 1


def _transposed_populate(rs, rng, n_files, spf, bs):
    """The random-fill populate that drew blocks in place replaced: each
    file's draw copied into a transposed ``(k + m, spf * bs)`` matrix,
    parity encoded over all stripes side by side and copied in after it.
    Key ``(f, s, i)`` is block ``i`` of stripe ``s`` of the ``f``-th file."""
    k, m = rs.k, rs.m
    blocks = {}
    for f in range(n_files):
        draw = uniform_bytes(rng, spf * k * bs).reshape(spf, k, bs)
        coded = np.empty((k + m, spf * bs), dtype=np.uint8)
        coded[:k].reshape(k, spf, bs)[:] = draw.transpose(1, 0, 2)
        coded[k:] = rs.encode_matrix(coded[:k])
        for s in range(spf):
            for i in range(k + m):
                blocks[f, s, i] = coded[i, s * bs : (s + 1) * bs]
    return blocks


@pytest.mark.parametrize(
    "k, m, bs", [(6, 4, 256 * 1024), (4, 2, 64 * 1024)], ids=["rs6-4-256k", "rs4-2-64k"]
)
@pytest.mark.parametrize("spf", [1, 3, 8])
def test_populate_in_place_matches_the_transposed_matrix(k, m, bs, spf):
    """Every block, in the stores and the oracle, and the generator's state
    after populate equal the transposed-matrix populate's."""
    cfg = _small_config(k=k, m=m, block_size=bs)
    ecfs = ECFS(cfg, method="fo")
    files = ecfs.populate(n_files=2, stripes_per_file=spf, fill="random")
    rng = np.random.default_rng(cfg.seed)
    want = _transposed_populate(ecfs.rs, rng, len(files), spf, bs)
    assert ecfs._rng.bit_generator.state == rng.bit_generator.state
    assert len(ecfs.known_blocks) == len(want)
    for (f, s, i), content in want.items():
        bid = BlockId(files[f], s, i)
        assert np.array_equal(ecfs.osd_hosting(bid).store.view(bid), content), bid
        if i < k:
            assert np.array_equal(ecfs.oracle.expected(bid), content), bid


def test_populate_blocks_are_readonly_views_of_one_draw():
    """A stripe's k data blocks lie back to back in its file's draw, the
    oracle shares them, and no populate block can be written through: a
    store ``write`` and an oracle ``apply`` leave the draw and the parity
    unchanged."""
    cfg = _small_config()
    ecfs = ECFS(cfg, method="fo")
    k, m, bs = cfg.k, cfg.m, cfg.block_size
    (fid,) = ecfs.populate(n_files=1, stripes_per_file=3, fill="random")
    owners = set()
    shared = {}
    for s in range(3):
        bids = [BlockId(fid, s, i) for i in range(k + m)]
        views = [ecfs.osd_hosting(bid).store.view(bid) for bid in bids]
        shared.update(zip(bids, views))
        for bid, view in zip(bids, views):
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0] ^= 1
            if bid.idx < k:
                assert np.shares_memory(ecfs.oracle.expected(bid), view)
        data, parity = views[:k], views[k:]
        # numpy collapses a view's base to the array owning the memory
        draw = data[0].base
        assert draw.nbytes == 3 * k * bs
        for i, view in enumerate(data):
            assert view.base is draw
            assert view.ctypes.data == data[0].ctypes.data + i * bs
        assert not any(np.shares_memory(p, draw) for p in parity)
        owners.add(id(draw))
    assert len(owners) == 1  # one draw per file

    pristine = {bid: np.array(view) for bid, view in shared.items()}
    stamp = np.full(16, 0xEE, dtype=np.uint8)
    for bid in shared:
        ecfs.osd_hosting(bid).store.write(bid, 0, stamp)
        if bid.idx < k:
            ecfs.oracle.apply(bid, 0, stamp)
    for bid, view in shared.items():
        assert np.array_equal(view, pristine[bid])
        assert np.array_equal(ecfs.osd_hosting(bid).store.read(bid, 0, 16), stamp)


def test_populate_ignores_an_earlier_cells_writes():
    """Each cell draws its own populate: a second ECFS with the same config
    gets the same files and byte-identical blocks, shares no memory with
    the first cell's draw, and starts clean after the first cell's store
    ``write`` and oracle ``apply``."""
    cfg = _small_config()
    first = ECFS(cfg, method="fo")
    files = first.populate(n_files=2, stripes_per_file=2, fill="random")
    views = {bid: first.osd_hosting(bid).store.view(bid) for bid in first.known_blocks}
    pristine = {bid: np.array(view) for bid, view in views.items()}
    stamp = np.full(16, 0xEE, dtype=np.uint8)
    for bid in views:
        first.osd_hosting(bid).store.write(bid, 0, stamp)
        if bid.idx < cfg.k:
            first.oracle.apply(bid, 0, stamp)

    second = ECFS(cfg, method="fo")
    assert second.populate(n_files=2, stripes_per_file=2, fill="random") == files
    assert second.known_blocks == first.known_blocks
    for bid, content in pristine.items():
        view = second.osd_hosting(bid).store.view(bid)
        assert np.array_equal(view, content), bid
        assert not np.shares_memory(view, views[bid])
    assert second.oracle.applied_updates == 0
    assert second.verify() == len(files) * 2


def test_populate_allocates_no_transient_copy():
    """Traced peak minus end of a 6 x 8 x 256 KiB random-fill populate: what
    is live at the end is the draw (12 MiB) and the parity (8 MiB).  The
    transposed-matrix populate's transient measured 21.5 MiB (the draw
    beside the matrix, and the parity beside its copy); in place it
    measured 1.5 MiB, the encoder's scratch and cold pair tables."""
    ecfs = ECFS(_small_config(k=6, m=4, block_size=256 * 1024), method="fo")
    tracemalloc.start()
    try:
        ecfs.populate(n_files=1, stripes_per_file=8, fill="random")
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert end >= 20 << 20
    assert peak - end < 2 << 20, (end, peak)


def test_unknown_method_rejected():
    with pytest.raises(KeyError):
        ECFS(_small_config(), method="nope")


def test_read_returns_committed_data():
    cfg = _small_config()
    ecfs = ECFS(cfg, method="tsue")
    files = ecfs.populate(n_files=1, stripes_per_file=1, fill="random")
    (client,) = ecfs.add_clients(1)

    def flow():
        yield ecfs.env.process(client.update(files[0], 4096, 4096))
        data = yield ecfs.env.process(client.read(files[0], 4096, 4096))
        return data

    data = ecfs.env.run(ecfs.env.process(flow()))
    expected = ecfs.oracle.expected(BlockId(files[0], 0, 0))[4096:8192]
    assert np.array_equal(data, expected)
