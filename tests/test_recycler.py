"""Unit tests for the recycle planner (block-affinity lanes)."""

import numpy as np

from repro.core.intervals import MergePolicy
from repro.core.logunit import LogUnit
from repro.core.recycler import RecyclePlanner


def _unit(merge=True):
    return LogUnit(0, 1 << 20, MergePolicy.OVERWRITE, 1 << 16, merge=merge)


def test_plan_groups_by_block():
    unit = _unit()
    for i in range(4):
        unit.append(f"blk{i % 2}", i * 100, np.ones(10, dtype=np.uint8), now=0.0)
    planner = RecyclePlanner(n_lanes=2)
    items = planner.plan(unit)
    assert {w.block for w in items} == {"blk0", "blk1"}
    assert sum(w.raw_records for w in items) == 4


def test_same_block_same_lane():
    planner = RecyclePlanner(n_lanes=4)
    assert planner.lane_of("blk") == planner.lane_of("blk")
    # an unmerged block is one work item, so all its records share a lane
    unit = _unit(merge=False)
    for i in range(5):
        unit.append("blk", i, np.ones(4, dtype=np.uint8), now=0.0)
    (work,) = planner.plan(unit)
    assert (work.block, work.lane) == ("blk", planner.lane_of("blk"))
    assert len(work.extents) == work.raw_records == 5


def test_raw_mode_preserves_append_order_within_lane():
    """The declared recycle order of an unmerged unit: within a lane,
    blocks in first-append order, each block's records consecutively and
    in append order — not the global append order interleaving blocks."""
    unit = _unit(merge=False)
    blocks = ["b0", "b1", "b2"]
    for i in range(9):
        block = blocks[(i * 2) % 3]  # b0, b2, b1, b0, b2, b1, ...
        unit.append(block, 0, np.full(4, i, dtype=np.uint8), now=0.0)
    planner = RecyclePlanner(n_lanes=1)
    (lane,) = planner.lanes(planner.plan(unit))
    assert [w.block for w in lane] == ["b0", "b2", "b1"]
    assert [[int(e.data[0]) for e in w.extents] for w in lane] == [
        [0, 3, 6], [1, 4, 7], [2, 5, 8]
    ]
    # with more lanes each block keeps its records in append order
    planner = RecyclePlanner(n_lanes=3)
    for work in planner.plan(unit):
        values = [int(e.data[0]) for e in work.extents]
        assert values == sorted(values) and len(values) == 3


def test_progress_keys_count_repeated_ranges():
    """Two unmerged records over one range get distinct recycle-progress
    keys, told apart by the ordinal ``n``; a merged block's is always 0."""
    keys = {}
    for merge in (False, True):
        unit = _unit(merge=merge)
        for offset, fill in ((0, 1), (8, 2), (0, 3)):
            unit.append("blk", offset, np.full(4, fill, dtype=np.uint8), now=0.0)
        (work,) = RecyclePlanner().plan(unit)
        keys[merge] = [key for key, _ext in work.keyed("dl")]
    assert keys[False] == [
        ("dl", "blk", 0, 4, 0), ("dl", "blk", 8, 4, 0), ("dl", "blk", 0, 4, 1)
    ]
    assert keys[True] == [("dl", "blk", 0, 4, 0), ("dl", "blk", 8, 4, 0)]


def test_lanes_partition_items():
    unit = _unit()
    for i in range(10):
        unit.append(f"blk{i}", 0, np.ones(4, dtype=np.uint8), now=0.0)
    planner = RecyclePlanner(n_lanes=3)
    items = planner.plan(unit)
    lanes = list(planner.lanes(items))
    flat = [w for lane in lanes for w in lane]
    assert len(flat) == 10
    for lane in lanes:
        assert len({w.lane for w in lane}) == 1


def test_reduction_ratio():
    unit = _unit()
    for _ in range(10):
        unit.append("blk", 0, np.ones(8, dtype=np.uint8), now=0.0)
    planner = RecyclePlanner()
    planner.plan(unit)
    assert (planner.raw_records, planner.planned_extents) == (10, 1)


def test_work_live_bytes():
    unit = _unit()
    unit.append("blk", 0, np.ones(8, dtype=np.uint8), now=0.0)
    unit.append("blk", 8, np.ones(8, dtype=np.uint8), now=0.0)  # coalesces
    planner = RecyclePlanner()
    (work,) = planner.plan(unit)
    assert [(e.start, e.size) for e in work.extents] == [(0, 16)]
