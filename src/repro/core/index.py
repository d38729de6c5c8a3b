"""Two-level index of a log unit (§3.3.1).

Level 1: hash map block -> :class:`ExtentMap`, or :class:`RecordList` when
the log does not merge (the fig. 7 ablations).
Level 2: the map's offset-sorted extents, or the list's records in order.

A page-granular bitmap per block answers "could this range be in the log?"
in O(pages) without touching the extent list — the paper adds it to avoid
unnecessary linked-list walks under read load.  The bitmap is always on: a
block gets one the moment its first record lands, and both queries read it
through one window, :meth:`TwoLevelIndex._pages` (every page marked for a
full hit, any page marked for an overlap).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Optional

import numpy as np

from repro.core.intervals import Extent, ExtentMap, MergePolicy, RecordList

__all__ = ["TwoLevelIndex"]

_BITMAP_PAGE = 4096


class TwoLevelIndex:
    """Block-keyed extent index with bitmap-accelerated membership tests."""

    def __init__(
        self, policy: MergePolicy, block_size: int, merge: bool = True
    ) -> None:
        self.policy = policy
        self.merge = merge
        self._npages = -(-block_size // _BITMAP_PAGE)
        self._maps: dict[Hashable, ExtentMap | RecordList] = {}
        self._bitmaps: dict[Hashable, np.ndarray] = {}

    # ------------------------------------------------------------------ API
    def insert(
        self, block: Hashable, offset: int, data: np.ndarray, own: bool = False
    ) -> None:
        emap = self._maps.get(block)
        if emap is None:
            emap = self._maps[block] = (
                ExtentMap(self.policy) if self.merge else RecordList()
            )
            self._bitmaps[block] = np.zeros(self._npages, dtype=bool)
        emap.insert(offset, data, own=own)
        self._pages(block, offset, len(data))[:] = True

    def lookup(self, block: Hashable, offset: int, size: int) -> Optional[np.ndarray]:
        """Read-cache query: bytes if the full range is covered, else None."""
        pages = self._pages(block, offset, size)
        if pages is None or not pages.all():
            return None
        return self._maps[block].lookup(offset, size)

    def covers_any(self, block: Hashable, offset: int, size: int) -> bool:
        """True if any byte of the range is logged."""
        pages = self._pages(block, offset, size)
        return (
            pages is not None
            and bool(pages.any())
            and self._maps[block].covers_any(offset, size)
        )

    def blocks(self) -> Iterator[Hashable]:
        return iter(self._maps)

    def extents(self, block: Hashable) -> Iterable[Extent]:
        emap = self._maps.get(block)
        return emap.extents() if emap else ()

    def extent_map(self, block: Hashable) -> Optional[ExtentMap | RecordList]:
        return self._maps.get(block)

    def clear(self) -> None:
        self._maps.clear()
        self._bitmaps.clear()

    def __len__(self) -> int:
        return len(self._maps)

    # ------------------------------------------------------------ internals
    def _pages(
        self, block: Hashable, offset: int, size: int
    ) -> Optional[np.ndarray]:
        """The bitmap window of the pages [offset, offset + size) touches,
        or None when nothing of ``block`` was logged."""
        bm = self._bitmaps.get(block)
        if bm is None:
            return None
        return bm[offset // _BITMAP_PAGE : -(-(offset + size) // _BITMAP_PAGE)]
