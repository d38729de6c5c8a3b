"""Property-based tests: ExtentMap vs a brute-force byte-map model.

The model is dead simple — a byte array plus a coverage bitmap — and the
merge policies reduce to elementwise assignment (OVERWRITE) or XOR on the
covered range.  Random insert sequences must leave the real ExtentMap
agreeing with the model on every query, and its structural invariants
(sorted, non-overlapping, fully coalesced extents) must always hold.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.intervals import Extent, ExtentMap, MergePolicy, RecordList, overlay

SPACE = 256  # model byte-space size; small so overlaps/adjacency are common


class ByteModel:
    """Brute-force reference: byte values + coverage bitmap."""

    def __init__(self, policy: MergePolicy) -> None:
        self.policy = policy
        self.bytes = np.zeros(SPACE, dtype=np.uint8)
        self.covered = np.zeros(SPACE, dtype=bool)

    def insert(self, offset: int, data: np.ndarray) -> None:
        end = offset + data.shape[0]
        if self.policy is MergePolicy.OVERWRITE:
            self.bytes[offset:end] = data
        else:  # XOR: covered bytes accumulate, fresh bytes are set
            seg = self.bytes[offset:end]
            cov = self.covered[offset:end]
            seg[cov] ^= data[cov]
            seg[~cov] = data[~cov]
            self.bytes[offset:end] = seg
        self.covered[offset:end] = True

    def runs(self) -> list[tuple[int, int]]:
        """Maximal covered (start, end) runs — what coalescing must yield."""
        out = []
        i = 0
        while i < SPACE:
            if self.covered[i]:
                j = i
                while j < SPACE and self.covered[j]:
                    j += 1
                out.append((i, j))
                i = j
            else:
                i += 1
        return out


ops_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=SPACE - 1),
        st.integers(min_value=1, max_value=48),
        st.integers(min_value=0, max_value=255),
    ),
    min_size=1,
    max_size=30,
)

policies = st.sampled_from([MergePolicy.OVERWRITE, MergePolicy.XOR])


def _build(policy, ops):
    emap = ExtentMap(policy)
    model = ByteModel(policy)
    rng = np.random.default_rng(1234)
    for offset, size, fill in ops:
        size = min(size, SPACE - offset)
        if size <= 0:
            continue
        data = ((np.arange(size) + fill) % 256).astype(np.uint8)
        emap.insert(offset, data)
        model.insert(offset, data)
    return emap, model


@settings(max_examples=120, deadline=None)
@given(policies, ops_strategy)
def test_structure_sorted_nonoverlapping_coalesced(policy, ops):
    emap, model = _build(policy, ops)
    extents = list(emap.extents())
    # sorted and non-overlapping, with no two extents touching (coalesced)
    for a, b in zip(extents, extents[1:]):
        assert a.end < b.start, f"{a} and {b} overlap or should have merged"
    # extents are exactly the model's covered runs
    assert [(e.start, e.end) for e in extents] == model.runs()
    assert sum(e.size for e in extents) == int(model.covered.sum())


@settings(max_examples=120, deadline=None)
@given(policies, ops_strategy)
def test_contents_match_model(policy, ops):
    emap, model = _build(policy, ops)
    for ext in emap.extents():
        assert np.array_equal(ext.data, model.bytes[ext.start : ext.end])


@settings(max_examples=120, deadline=None)
@given(
    policies,
    ops_strategy,
    st.integers(min_value=0, max_value=SPACE - 1),
    st.integers(min_value=1, max_value=64),
)
def test_queries_match_model(policy, ops, qoff, qsize):
    qsize = min(qsize, SPACE - qoff)
    if qsize <= 0:
        return
    emap, model = _build(policy, ops)
    window = model.covered[qoff : qoff + qsize]

    assert emap.covers_any(qoff, qsize) == bool(window.any())

    got = emap.read_range(qoff, qsize)
    if window.all():
        assert got is not None
        assert np.array_equal(got, model.bytes[qoff : qoff + qsize])
    else:
        assert got is None

    # lookup succeeds iff ONE extent covers the whole range, i.e. the range
    # sits inside a single covered run
    hit = emap.lookup(qoff, qsize)
    in_single_run = any(
        s <= qoff and qoff + qsize <= e for s, e in model.runs()
    )
    if in_single_run:
        assert hit is not None
        assert np.array_equal(hit, model.bytes[qoff : qoff + qsize])
    else:
        assert hit is None

    # uncovered() gaps are exactly the bitmap's holes inside the window
    gaps = emap.uncovered(qoff, qsize)
    mask = np.ones(qsize, dtype=bool)
    for goff, gsize in gaps:
        assert qoff <= goff and goff + gsize <= qoff + qsize
        mask[goff - qoff : goff - qoff + gsize] = False
    assert np.array_equal(mask, window)


@settings(max_examples=120, deadline=None)
@given(
    ops_strategy,
    st.integers(min_value=0, max_value=SPACE - 1),
    st.integers(min_value=1, max_value=64),
)
def test_overlay_matches_model_later_extent_wins(ops, qoff, qsize):
    """``overlay`` lands raw, possibly overlapping extents on a window of a
    read buffer exactly as writing them in order into the byte model does:
    bytes no extent covers keep the buffer's value, a later extent wins."""
    qsize = min(qsize, SPACE - qoff)
    model = ByteModel(MergePolicy.OVERWRITE)
    extents = []
    for offset, size, fill in ops:
        size = min(size, SPACE - offset)
        data = ((np.arange(size) + fill) % 256).astype(np.uint8)
        model.insert(offset, data)
        extents.append(Extent(offset, data))
    base = np.full(qsize, 0xEE, dtype=np.uint8)
    want = np.where(
        model.covered[qoff : qoff + qsize], model.bytes[qoff : qoff + qsize], base
    )
    buf = base.copy()
    assert overlay(buf, qoff, extents) is buf
    assert np.array_equal(buf, want)
    # an ExtentMap's own extents overlay to the same bytes (what the log
    # read paths pass), and reversing the raw order flips who wins
    emap, _ = _build(MergePolicy.OVERWRITE, ops)
    assert np.array_equal(overlay(base.copy(), qoff, emap.extents()), want)
    first_wins = ByteModel(MergePolicy.OVERWRITE)
    for ext in reversed(extents):
        first_wins.insert(ext.start, ext.data)
    assert np.array_equal(
        overlay(base.copy(), qoff, reversed(extents))[model.covered[qoff : qoff + qsize]],
        first_wins.bytes[qoff : qoff + qsize][model.covered[qoff : qoff + qsize]],
    )


@settings(max_examples=120, deadline=None)
@given(
    ops_strategy,
    st.integers(min_value=0, max_value=SPACE - 1),
    st.integers(min_value=1, max_value=64),
)
def test_record_list_reads_as_the_merged_map(ops, qoff, qsize):
    """An unmerged :class:`RecordList` reads like the ``ExtentMap
    (OVERWRITE)`` built from the same records: its records overlay a window
    to the map's bytes, and a lookup is a miss or exactly those bytes."""
    qsize = min(qsize, SPACE - qoff)
    emap, _model = _build(MergePolicy.OVERWRITE, ops)
    records = RecordList()
    for offset, size, fill in ops:
        size = min(size, SPACE - offset)
        records.insert(offset, ((np.arange(size) + fill) % 256).astype(np.uint8))
    assert records.records_absorbed == emap.records_absorbed
    assert records.covers_any(qoff, qsize) == emap.covers_any(qoff, qsize)
    base = np.full(qsize, 0xEE, dtype=np.uint8)
    assert np.array_equal(
        overlay(base.copy(), qoff, records.extents()),
        overlay(base.copy(), qoff, emap.extents()),
    )
    hit = records.lookup(qoff, qsize)
    if hit is not None:
        assert np.array_equal(hit, emap.read_range(qoff, qsize))


@settings(max_examples=60, deadline=None)
@given(ops_strategy)
def test_overwrite_newest_wins(ops):
    """With OVERWRITE, re-reading any byte returns the latest write."""
    emap, model = _build(MergePolicy.OVERWRITE, ops)
    full = emap.read_range(0, SPACE)
    if full is None:
        # not fully covered: check each covered run instead
        for s, e in model.runs():
            got = emap.read_range(s, e - s)
            assert got is not None and np.array_equal(got, model.bytes[s:e])
    else:
        assert np.array_equal(full, model.bytes)


@settings(max_examples=60, deadline=None)
@given(ops_strategy)
def test_records_absorbed_counts_inserts(ops):
    emap, _model = _build(MergePolicy.OVERWRITE, ops)
    effective = sum(1 for o, s, _f in ops if min(s, SPACE - o) > 0)
    assert emap.records_absorbed == effective
    assert len(emap) <= emap.records_absorbed


@settings(max_examples=120, deadline=None)
@given(policies, ops_strategy)
def test_adopted_arrays_are_never_written(policy, ops):
    """``own=True`` hands the map the caller's array.  The map may keep it
    as an extent but never writes into it: after every insert each adopted
    array still equals its snapshot, and a record that touches no extent is
    stored as the very array passed."""
    emap = ExtentMap(policy)
    model = ByteModel(policy)
    adopted = []
    for offset, size, fill in ops:
        size = min(size, SPACE - offset)
        data = ((np.arange(size) + fill) % 256).astype(np.uint8)
        alone = all(
            e.end < offset or offset + size < e.start for e in emap.extents()
        )
        emap.insert(offset, data, own=True)
        model.insert(offset, data)
        adopted.append((data, data.copy()))
        if alone:
            (stored,) = [e for e in emap.extents() if e.start == offset]
            assert np.shares_memory(stored.data, data)
        for arr, snapshot in adopted:
            assert np.array_equal(arr, snapshot)
    for ext in emap.extents():
        assert np.array_equal(ext.data, model.bytes[ext.start : ext.end])
