"""Unit tests for the recycle planner (block-affinity lanes)."""

import numpy as np

from repro.core.intervals import MergePolicy
from repro.core.logunit import LogUnit, RawKey
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
    # RawKey unwraps to its block for lane assignment
    assert planner.lane_of(RawKey("blk", 0)) == planner.lane_of(RawKey("blk", 99))
    assert planner.lane_of(RawKey("blk", 5)) == planner.lane_of("blk")


def test_raw_mode_preserves_append_order_within_lane():
    unit = _unit(merge=False)
    for i in range(6):
        unit.append("blk", 0, np.full(4, i, dtype=np.uint8), now=0.0)
    planner = RecyclePlanner(n_lanes=3)
    items = planner.plan(unit)
    # all records of "blk" are in one lane, ordered by seq
    lanes = list(planner.lanes(items))
    assert len(lanes) == 1
    seqs = [w.block.seq for w in lanes[0]]
    assert seqs == sorted(seqs)


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
    assert planner.reduction_ratio == 10.0


def test_work_live_bytes():
    unit = _unit()
    unit.append("blk", 0, np.ones(8, dtype=np.uint8), now=0.0)
    unit.append("blk", 8, np.ones(8, dtype=np.uint8), now=0.0)  # coalesces
    planner = RecyclePlanner()
    (work,) = planner.plan(unit)
    assert work.live_bytes == 16
    assert len(work.extents) == 1
