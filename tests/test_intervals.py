"""Unit + property tests for ExtentMap (the second-level index)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervals import Extent, ExtentMap, MergePolicy


def _bytes(seed, n):
    return np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8)


def test_insert_disjoint_keeps_both():
    m = ExtentMap(MergePolicy.OVERWRITE)
    m.insert(0, _bytes(0, 8))
    m.insert(100, _bytes(1, 8))
    assert len(m) == 2
    assert sum(e.size for e in m.extents()) == 16


def test_overwrite_same_range_latest_wins():
    m = ExtentMap(MergePolicy.OVERWRITE)
    first, second = _bytes(0, 16), _bytes(1, 16)
    m.insert(32, first)
    m.insert(32, second)
    assert len(m) == 1
    assert np.array_equal(m.lookup(32, 16), second)
    assert m.records_absorbed == 2


def test_overwrite_partial_overlap_layers_correctly():
    m = ExtentMap(MergePolicy.OVERWRITE)
    a = np.full(8, 1, dtype=np.uint8)
    b = np.full(8, 2, dtype=np.uint8)
    m.insert(0, a)
    m.insert(4, b)  # covers [4, 12)
    assert len(m) == 1
    got = m.lookup(0, 12)
    assert np.array_equal(got[:4], a[:4])
    assert np.array_equal(got[4:], b)


def test_adjacent_extents_coalesce():
    m = ExtentMap(MergePolicy.OVERWRITE)
    m.insert(0, np.full(4, 1, dtype=np.uint8))
    m.insert(4, np.full(4, 2, dtype=np.uint8))
    assert len(m) == 1
    ext = next(m.extents())
    assert ext.start == 0 and ext.size == 8


def test_coalesce_bridging_three():
    m = ExtentMap(MergePolicy.OVERWRITE)
    m.insert(0, np.full(4, 1, dtype=np.uint8))
    m.insert(8, np.full(4, 3, dtype=np.uint8))
    m.insert(4, np.full(4, 2, dtype=np.uint8))  # bridges the gap
    assert len(m) == 1
    assert np.array_equal(
        m.lookup(0, 12),
        np.concatenate([np.full(4, 1), np.full(4, 2), np.full(4, 3)]).astype(np.uint8),
    )


def test_xor_policy_composes_deltas():
    m = ExtentMap(MergePolicy.XOR)
    a, b = _bytes(0, 8), _bytes(1, 8)
    m.insert(16, a)
    m.insert(16, b)
    assert np.array_equal(m.lookup(16, 8), a ^ b)


def test_xor_partial_overlap():
    m = ExtentMap(MergePolicy.XOR)
    a = np.full(8, 0x0F, dtype=np.uint8)
    b = np.full(8, 0xF0, dtype=np.uint8)
    m.insert(0, a)
    m.insert(4, b)
    got = m.lookup(0, 12)
    assert np.array_equal(got[:4], a[:4])
    assert np.array_equal(got[4:8], a[4:] ^ b[:4])
    assert np.array_equal(got[8:], b[4:])


def test_lookup_miss_outside():
    m = ExtentMap(MergePolicy.OVERWRITE)
    m.insert(10, _bytes(0, 10))
    assert m.lookup(0, 5) is None
    assert m.lookup(15, 10) is None  # extends past the extent
    assert m.lookup(25, 4) is None


def test_covers_any():
    m = ExtentMap(MergePolicy.OVERWRITE)
    m.insert(10, _bytes(0, 10))
    assert m.covers_any(15, 100)
    assert m.covers_any(0, 11)
    assert not m.covers_any(0, 10)
    assert not m.covers_any(20, 5)


def test_uncovered_gaps():
    m = ExtentMap(MergePolicy.OVERWRITE)
    m.insert(10, _bytes(0, 10))  # [10, 20)
    m.insert(30, _bytes(1, 10))  # [30, 40)
    assert m.uncovered(0, 50) == [(0, 10), (20, 10), (40, 10)]
    assert m.uncovered(10, 10) == []
    assert m.uncovered(12, 4) == []
    assert m.uncovered(15, 20) == [(20, 10)]


def test_read_range_across_extents():
    m = ExtentMap(MergePolicy.OVERWRITE)
    a, b = _bytes(0, 10), _bytes(1, 10)
    m.insert(0, a)
    m.insert(10, b)  # coalesced anyway
    got = m.read_range(5, 10)
    assert np.array_equal(got, np.concatenate([a[5:], b[:5]]))
    assert m.read_range(15, 10) is None


def test_invalid_inserts_rejected():
    m = ExtentMap(MergePolicy.OVERWRITE)
    with pytest.raises(ValueError):
        m.insert(-1, _bytes(0, 4))
    with pytest.raises(ValueError):
        m.insert(0, np.zeros(0, dtype=np.uint8))
    with pytest.raises(ValueError):
        m.insert(0, np.zeros((2, 2), dtype=np.uint8))


def test_reduction_ratio_counts_merges():
    m = ExtentMap(MergePolicy.OVERWRITE)
    for _ in range(10):
        m.insert(0, _bytes(0, 4))
    assert (m.records_absorbed, len(m)) == (10, 1)


def test_clear_resets():
    m = ExtentMap(MergePolicy.OVERWRITE)
    m.insert(0, _bytes(0, 4))
    m.clear()
    assert len(m) == 0
    assert m.records_absorbed == 0


# ------------------------------------------------------------ property tests
@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=200),
            st.integers(min_value=1, max_value=50),
            st.integers(min_value=0, max_value=255),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_overwrite_matches_flat_buffer(records):
    """OVERWRITE extent map == writing the same records into a flat array."""
    m = ExtentMap(MergePolicy.OVERWRITE)
    flat = np.zeros(256, dtype=np.uint8)
    written = np.zeros(256, dtype=bool)
    for offset, size, fill in records:
        data = np.full(size, fill, dtype=np.uint8)
        m.insert(offset, data)
        flat[offset : offset + size] = data
        written[offset : offset + size] = True
    # 1. extents are sorted, non-overlapping, non-adjacent
    exts = list(m.extents())
    for left, right in zip(exts, exts[1:]):
        assert left.end < right.start
    # 2. coverage matches and bytes match
    covered = np.zeros(256, dtype=bool)
    for ext in exts:
        covered[ext.start : ext.end] = True
        assert np.array_equal(ext.data, flat[ext.start : ext.end])
    assert np.array_equal(covered, written)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=200),
            st.integers(min_value=1, max_value=50),
            st.integers(min_value=0, max_value=255),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_xor_matches_flat_xor_buffer(records):
    """XOR extent map == XOR-accumulating into a flat array."""
    m = ExtentMap(MergePolicy.XOR)
    flat = np.zeros(256, dtype=np.uint8)
    touched = np.zeros(256, dtype=bool)
    for offset, size, fill in records:
        data = np.full(size, fill, dtype=np.uint8)
        m.insert(offset, data)
        flat[offset : offset + size] ^= data
        touched[offset : offset + size] = True
    covered = np.zeros(256, dtype=bool)
    for ext in m.extents():
        covered[ext.start : ext.end] = True
        assert np.array_equal(ext.data, flat[ext.start : ext.end])
    # XOR may retain zero bytes where deltas cancelled — coverage equals
    # everything ever touched
    assert np.array_equal(covered, touched)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=400),
            st.integers(min_value=1, max_value=64),
        ),
        min_size=1,
        max_size=25,
    ),
    st.integers(min_value=0, max_value=420),
    st.integers(min_value=1, max_value=80),
)
def test_uncovered_complements_coverage(records, q_off, q_size):
    m = ExtentMap(MergePolicy.OVERWRITE)
    covered = np.zeros(512, dtype=bool)
    for offset, size in records:
        m.insert(offset, np.ones(size, dtype=np.uint8))
        covered[offset : offset + size] = True
    gaps = m.uncovered(q_off, q_size)
    from_gaps = np.zeros(512, dtype=bool)
    for off, size in gaps:
        assert q_off <= off and off + size <= q_off + q_size
        from_gaps[off : off + size] = True
    window = np.zeros(512, dtype=bool)
    window[q_off : q_off + q_size] = True
    assert np.array_equal(from_gaps, window & ~covered)
