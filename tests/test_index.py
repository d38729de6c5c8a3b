"""Unit tests for the two-level index."""

import numpy as np
import pytest

from repro.core.index import TwoLevelIndex
from repro.core.intervals import MergePolicy

BLOCK = 64 * 1024


def _bytes(seed, n):
    return np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8)


def test_blocks_are_independent():
    idx = TwoLevelIndex(MergePolicy.OVERWRITE, BLOCK)
    idx.insert("a", 0, _bytes(0, 8))
    idx.insert("b", 0, _bytes(1, 8))
    assert len(idx) == 2
    assert not np.array_equal(idx.lookup("a", 0, 8), idx.lookup("b", 0, 8))


def test_lookup_full_hit_and_miss():
    idx = TwoLevelIndex(MergePolicy.OVERWRITE, BLOCK)
    data = _bytes(0, 16)
    idx.insert("blk", 64, data)
    assert np.array_equal(idx.lookup("blk", 64, 16), data)
    assert np.array_equal(idx.lookup("blk", 68, 4), data[4:8])
    assert idx.lookup("blk", 60, 16) is None
    assert idx.lookup("other", 64, 16) is None


def test_bitmap_fast_path_rejects_unwritten_pages():
    idx = TwoLevelIndex(MergePolicy.OVERWRITE, BLOCK)
    idx.insert("blk", 0, _bytes(0, 4096))
    # second page never written: bitmap must answer without extent walk
    assert idx.lookup("blk", 8192, 100) is None
    assert not idx.covers_any("blk", 8192, 100)
    assert idx.covers_any("blk", 0, 100)


def test_bitmap_spanning_pages():
    idx = TwoLevelIndex(MergePolicy.OVERWRITE, BLOCK)
    data = _bytes(0, 8192)
    idx.insert("blk", 2048, data)  # spans pages 0..2
    assert np.array_equal(idx.lookup("blk", 2048, 8192), data)


def test_totals_and_clear():
    idx = TwoLevelIndex(MergePolicy.OVERWRITE, BLOCK)
    for i in range(5):
        idx.insert("blk", i * 100, _bytes(i, 10))
    exts = list(idx.extents("blk"))
    assert len(exts) == 5
    assert idx.extent_map("blk").records_absorbed == 5
    assert sum(e.size for e in exts) == 50
    idx.clear()
    assert len(idx) == 0
    assert list(idx.extents("blk")) == []


def test_extents_iteration():
    idx = TwoLevelIndex(MergePolicy.XOR, BLOCK)
    idx.insert("blk", 0, _bytes(0, 4))
    idx.insert("blk", 4, _bytes(1, 4))  # coalesces
    exts = list(idx.extents("blk"))
    assert len(exts) == 1
    assert exts[0].size == 8
    assert list(idx.extents("missing")) == []


def test_merging_within_block():
    idx = TwoLevelIndex(MergePolicy.OVERWRITE, BLOCK)
    new = _bytes(1, 8)
    idx.insert("blk", 0, _bytes(0, 8))
    idx.insert("blk", 0, new)
    assert len(list(idx.extents("blk"))) == 1
    assert np.array_equal(idx.lookup("blk", 0, 8), new)
