"""Recycle planning: block-affinity lanes over sealed log units (§3.2.1).

The paper recycles log units *per block* on a thread pool, with all records
of one block pinned to one thread so merges happen in arrival order.  The
planner reproduces that: given a sealed unit's index, it yields per-block
work items and assigns each block to a lane by hash, so the TSUE method can
run ``n_lanes`` concurrent recycle processes without reordering a block's
records.

Within a lane, blocks recycle in first-append order, each block's content
consecutively: merged extents by offset, unmerged records in append order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterator, Optional

from repro.background.work import RecycleOp
from repro.core.intervals import Extent
from repro.core.logunit import LogUnit

__all__ = ["BlockWork", "RecyclePlanner", "unit_recycle_op"]


def unit_recycle_op(osd_name: str, pool_name: str, unit: LogUnit) -> RecycleOp:
    """The typed work item recycling one sealed unit submits to the unified
    background scheduler: the byte cost is the unit's live content (what the
    recycle will read, merge, and write back), charged to the hosting OSD's
    background budget under the ``recycle`` stream."""
    return RecycleOp(osd=osd_name, nbytes=int(unit.used), tag=pool_name)


@dataclass
class BlockWork:
    """All extents (or unmerged records) of one block within one unit."""

    block: Hashable
    extents: list[Extent]
    raw_records: int
    lane: int

    def keyed(self, prefix: str) -> Iterator[tuple[tuple, Extent]]:
        """``(recycle-progress key, extent)`` pairs.  A key is ``(prefix,
        block, start, size, n)``, ``n`` counting earlier extents with the
        same ``(start, size)`` (0 when merged): unique in an unmerged block,
        and, unlike a list position, unmoved by a later append."""
        seen: dict[tuple[int, int], int] = {}
        for ext in self.extents:
            span = (ext.start, ext.size)
            n = seen.get(span, 0)
            seen[span] = n + 1
            yield (prefix, self.block, ext.start, ext.size, n), ext


@dataclass
class RecyclePlanner:
    """Splits a unit into per-block work with stable lane assignment."""

    n_lanes: int = 4
    #: cumulative stats across all planned units
    planned_extents: int = field(default=0, init=False)
    raw_records: int = field(default=0, init=False)

    def plan(self, unit: LogUnit, record: bool = True) -> list[BlockWork]:
        """Work items for one sealed unit, ordered by lane, then by the
        block's first append.

        ``record=False`` skips the cumulative stats update, for callers
        (``perfbench/probes.py``) that plan a unit without recycling it.
        """
        if self.n_lanes < 1:
            raise ValueError("need at least one lane")
        items = [
            work
            for block in unit.index.blocks()
            if (work := self.block_work(unit, block)) is not None
        ]
        # a stable sort: the index's first-append order within each lane
        items.sort(key=lambda w: w.lane)
        if record:
            self.planned_extents += sum(len(w.extents) for w in items)
            self.raw_records += sum(w.raw_records for w in items)
        return items

    def block_work(self, unit: LogUnit, block: Hashable) -> Optional[BlockWork]:
        """``block``'s item of :meth:`plan` for ``unit`` — None when the unit
        holds nothing for it — without touching the cumulative stats."""
        emap = unit.index.extent_map(block)
        if emap is None:
            return None
        extents = list(emap.extents())
        if not extents:
            return None
        return BlockWork(
            block=block,
            extents=extents,
            raw_records=emap.records_absorbed,
            lane=self.lane_of(block),
        )

    def lanes(self, items: list[BlockWork]) -> Iterator[list[BlockWork]]:
        """Group planned items by lane (each lane processed sequentially)."""
        for lane in range(self.n_lanes):
            lane_items = [w for w in items if w.lane == lane]
            if lane_items:
                yield lane_items

    def lane_of(self, block: Hashable) -> int:
        return hash(block) % self.n_lanes
