"""Unit tests for LogUnit lifecycle and residence accounting."""

import numpy as np
import pytest

from repro.common.errors import IntegrityError
from repro.core.intervals import MergePolicy
from repro.core.logunit import LogUnit, LogUnitState


def _unit(capacity=1024, merge=True):
    return LogUnit(0, capacity, MergePolicy.OVERWRITE, 1 << 16, merge=merge)


def _bytes(n, fill=7):
    return np.full(n, fill, dtype=np.uint8)


def test_append_tracks_used_bytes():
    u = _unit()
    u.append("blk", 0, _bytes(100), now=1.0)
    u.append("blk", 200, _bytes(50), now=2.0)
    assert u.used == 150
    assert u.fits(1024 - 150)
    assert not u.fits(1024 - 150 + 1)


def test_append_overflow_rejected():
    u = _unit(capacity=10)
    with pytest.raises(IntegrityError):
        u.append("blk", 0, _bytes(11), now=0.0)


def test_lifecycle_transitions():
    u = _unit()
    u.append("blk", 0, _bytes(10), now=1.0)
    u.seal()
    assert u.state is LogUnitState.RECYCLABLE
    u.start_recycle(3.0)
    assert u.state is LogUnitState.RECYCLING
    u.finish_recycle(4.0)
    assert u.state is LogUnitState.RECYCLED
    u.reuse()
    assert u.state is LogUnitState.EMPTY
    assert u.used == 0
    assert len(u.index) == 0


def test_illegal_transitions_rejected():
    u = _unit()
    with pytest.raises(IntegrityError):
        u.start_recycle(0.0)  # not sealed yet
    u.seal()
    with pytest.raises(IntegrityError):
        u.append("blk", 0, _bytes(1), now=0.0)
    with pytest.raises(IntegrityError):
        u.seal()
    with pytest.raises(IntegrityError):
        u.reuse()  # not recycled yet


def test_residence_intervals():
    u = _unit()
    u.append("blk", 0, _bytes(10), now=1.0)
    u.seal()
    u.start_recycle(7.0)
    u.finish_recycle(9.5)
    assert u.buffer_interval == pytest.approx(6.0)  # first append -> recycle
    assert u.recycle_interval == pytest.approx(2.5)


def test_residence_none_before_events():
    u = _unit()
    assert u.buffer_interval is None
    assert u.recycle_interval is None


def test_merge_mode_merges_same_block():
    u = _unit()
    u.append("blk", 0, _bytes(10, 1), now=0.0)
    u.append("blk", 0, _bytes(10, 2), now=0.0)
    assert len(list(u.index.extents("blk"))) == 1


def test_raw_mode_keeps_every_record_in_order():
    u = _unit(merge=False)
    u.append("blk", 0, _bytes(10, 1), now=0.0)
    u.append("other", 0, _bytes(10, 3), now=0.0)
    u.append("blk", 0, _bytes(10, 2), now=0.0)
    # one key per block; the block's records stay unmerged, in append order
    assert list(u.index.blocks()) == ["blk", "other"]
    assert [e.data[0] for e in u.index.extents("blk")] == [1, 2]
    # the newest record answers a read of its range
    assert u.index.lookup("blk", 0, 10)[0] == 2


def test_reuse_resets_raw_sequence():
    u = _unit(merge=False)
    u.append("blk", 0, _bytes(10, 1), now=0.0)
    u.seal()
    u.start_recycle(0.0)
    u.finish_recycle(0.0)
    u.reuse()
    u.append("blk", 0, _bytes(10, 2), now=0.0)
    assert list(u.index.blocks()) == ["blk"]
    assert [e.data[0] for e in u.index.extents("blk")] == [2]
