"""Extent maps: the offset-level (second-level) index of a log unit.

An :class:`ExtentMap` stores non-overlapping, offset-sorted byte extents for
one block.  Inserting a new record exploits spatio-temporal locality exactly
as §3.3.2 prescribes:

* **temporal** — a record overlapping an existing extent merges with it:
  with :attr:`MergePolicy.OVERWRITE` the new bytes replace the old (Eq. 4:
  only the latest update of an address matters); with :attr:`MergePolicy.XOR`
  the overlap is XOR-combined (Eq. 3: deltas compose additively);
* **spatial** — extents that touch end-to-start are coalesced into one
  larger extent, turning many small random I/Os into one larger I/O at
  recycle time.

Both happen in one splice: two bisects find every extent the record
overlaps or touches, one fresh buffer over their union takes the old bytes
and then the record (written on top, or XORed in), and that one extent
replaces them.  The map records how many raw records were absorbed so the
recycle-reduction ratio (records in / extents out) falls out for free.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

__all__ = ["MergePolicy", "Extent", "ExtentMap", "RecordList", "overlay"]


class MergePolicy(enum.Enum):
    """How overlapping byte ranges combine."""

    OVERWRITE = "overwrite"  # DataLog: newest data wins
    XOR = "xor"  # DeltaLog / ParityLog: deltas accumulate


@dataclass
class Extent:
    """A contiguous run of bytes at ``start`` (payload length = size)."""

    start: int
    data: np.ndarray

    @property
    def end(self) -> int:
        return self.start + self.data.shape[0]

    @property
    def size(self) -> int:
        return int(self.data.shape[0])

    def __repr__(self) -> str:
        return f"Extent[{self.start}, {self.end})"


def overlay(buf: np.ndarray, offset: int, extents: Iterable[Extent]) -> np.ndarray:
    """Copy onto ``buf`` — the bytes of ``[offset, offset + len(buf))`` —
    whatever part of each extent falls inside that window.  Extents are
    applied in the order given, so a later one wins where two overlap."""
    end = offset + buf.shape[0]
    for ext in extents:
        s, e = max(ext.start, offset), min(ext.end, end)
        if s < e:
            buf[s - offset : e - offset] = ext.data[s - ext.start : e - ext.start]
    return buf


class ExtentMap:
    """Sorted, non-overlapping extents for one block with merge-on-insert."""

    def __init__(self, policy: MergePolicy = MergePolicy.OVERWRITE) -> None:
        self.policy = policy
        self._starts: list[int] = []
        self._extents: list[Extent] = []
        self.records_absorbed = 0

    # ------------------------------------------------------------------ API
    def insert(self, offset: int, data: np.ndarray, own: bool = False) -> None:
        """Insert a record; merges overlaps per policy and coalesces adjacency.

        ``own=True`` transfers ownership of ``data`` to the map instead of
        taking a defensive copy — for hot-path callers handing over a fresh
        array nothing else will mutate (GF products, computed deltas).
        Extents never mutate their payload in place (a merge always builds
        a fresh buffer), so an adopted array is only ever read.
        """
        data = np.asarray(data, dtype=np.uint8)
        if data.ndim != 1 or data.shape[0] == 0:
            raise ValueError("record payload must be a non-empty 1-D array")
        if offset < 0:
            raise ValueError("offset must be >= 0")
        self.records_absorbed += 1

        # every extent that overlaps [offset, end) or touches it end-to-start
        end = offset + data.shape[0]
        lo = bisect_right(self._starts, offset) - 1
        if lo < 0 or self._extents[lo].end < offset:
            lo += 1
        hi = bisect_right(self._starts, end)
        if lo == hi:
            self._starts.insert(lo, offset)
            self._extents.insert(lo, Extent(offset, data if own else data.copy()))
            return
        # one fresh buffer over the union: the old extents, then the record
        olds = self._extents[lo:hi]
        start = min(offset, olds[0].start)
        buf = np.zeros(max(end, olds[-1].end) - start, dtype=np.uint8)
        for old in olds:
            buf[old.start - start : old.end - start] = old.data
        window = buf[offset - start : end - start]
        if self.policy is MergePolicy.XOR:
            window ^= data
        else:
            window[:] = data
        self._starts[lo:hi] = [start]
        self._extents[lo:hi] = [Extent(start, buf)]

    def lookup(self, offset: int, size: int) -> Optional[np.ndarray]:
        """Return bytes iff [offset, offset+size) is fully covered by ONE
        extent (the read-cache hit path); None otherwise."""
        if size <= 0:
            return None
        i = bisect_right(self._starts, offset) - 1
        if i < 0:
            return None
        ext = self._extents[i]
        if ext.start <= offset and offset + size <= ext.end:
            rel = offset - ext.start
            return ext.data[rel : rel + size].copy()
        return None

    def covers_any(self, offset: int, size: int) -> bool:
        """True if any byte of the range is present (staleness check)."""
        lo, hi = self._overlap_range(offset, offset + size)
        return lo != hi

    def uncovered(self, offset: int, size: int) -> list[tuple[int, int]]:
        """Sub-ranges of [offset, offset+size) NOT covered by any extent,
        as (offset, size) pairs in ascending order."""
        if size <= 0:
            return []
        end = offset + size
        gaps: list[tuple[int, int]] = []
        cursor = offset
        lo, hi = self._overlap_range(offset, end)
        for ext in self._extents[lo:hi]:
            if ext.start > cursor:
                gaps.append((cursor, ext.start - cursor))
            cursor = max(cursor, ext.end)
        if cursor < end:
            gaps.append((cursor, end - cursor))
        return gaps

    def read_range(self, offset: int, size: int) -> Optional[np.ndarray]:
        """Bytes of [offset, offset+size) if FULLY covered (possibly by
        several extents); None if any byte is missing."""
        if self.uncovered(offset, size):
            return None
        # full coverage is guaranteed above: every byte of the buffer is
        # assigned below, so a zero-fill would be pure waste
        lo, hi = self._overlap_range(offset, offset + size)
        return overlay(np.empty(size, dtype=np.uint8), offset, self._extents[lo:hi])

    def extents(self) -> Iterator[Extent]:
        return iter(self._extents)

    def __len__(self) -> int:
        return len(self._extents)

    def clear(self) -> None:
        self._starts.clear()
        self._extents.clear()
        self.records_absorbed = 0

    # ------------------------------------------------------------ internals
    def _overlap_range(self, start: int, end: int) -> tuple[int, int]:
        """Index range of extents overlapping [start, end)."""
        lo = bisect_right(self._starts, start) - 1
        if lo < 0 or self._extents[lo].end <= start:
            lo += 1
        hi = bisect_left(self._starts, end)
        return lo, hi


class RecordList:
    """One block's records, unmerged and in append order: the per-block map
    of a log that does not merge (§3.3.2's locality switched off)."""

    def __init__(self) -> None:
        self._records: list[Extent] = []

    def insert(self, offset: int, data: np.ndarray, own: bool = False) -> None:
        """Append a record; ``own`` as in :meth:`ExtentMap.insert`."""
        self._records.append(Extent(offset, data if own else data.copy()))

    def lookup(self, offset: int, size: int) -> Optional[np.ndarray]:
        """The newest record holding any byte of the range decides: its
        bytes if it holds the whole range, else None."""
        end = offset + size
        for rec in reversed(self._records):
            if rec.start < end and offset < rec.end:
                if rec.start <= offset and end <= rec.end:
                    return rec.data[offset - rec.start : end - rec.start].copy()
                return None
        return None

    def covers_any(self, offset: int, size: int) -> bool:
        """True if any byte of the range is present (staleness check)."""
        end = offset + size
        return any(rec.start < end and offset < rec.end for rec in self._records)

    def extents(self) -> Iterator[Extent]:
        """The records oldest first, so a later one wins an overlay."""
        return iter(self._records)

    @property
    def records_absorbed(self) -> int:
        return len(self._records)
