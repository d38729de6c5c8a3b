"""Two-level index of a log unit (§3.3.1).

Level 1: hash map block-key -> :class:`ExtentMap`.
Level 2: the ExtentMap's offset-sorted extent list.

A page-granular bitmap per block answers "could this range be in the log?"
in O(pages) without touching the extent list — the paper adds it to avoid
unnecessary linked-list walks under read load.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Optional

import numpy as np

from repro.core.intervals import Extent, ExtentMap, MergePolicy

__all__ = ["TwoLevelIndex"]

_BITMAP_PAGE = 4096


class TwoLevelIndex:
    """Block-keyed extent index with bitmap-accelerated membership tests."""

    def __init__(
        self, policy: MergePolicy = MergePolicy.OVERWRITE, block_size: int = 0
    ) -> None:
        self.policy = policy
        self.block_size = block_size  # 0 = unknown/variable
        self._maps: dict[Hashable, ExtentMap] = {}
        self._bitmaps: dict[Hashable, np.ndarray] = {}

    # ------------------------------------------------------------------ API
    def insert(
        self, block: Hashable, offset: int, data: np.ndarray, own: bool = False
    ) -> None:
        emap = self._maps.get(block)
        if emap is None:
            emap = self._maps[block] = ExtentMap(self.policy)
        emap.insert(offset, data, own=own)
        self._mark_bitmap(block, offset, len(data))

    def lookup(self, block: Hashable, offset: int, size: int) -> Optional[np.ndarray]:
        """Read-cache query: bytes if the full range is covered, else None."""
        if not self._bitmap_may_contain(block, offset, size):
            return None
        emap = self._maps.get(block)
        if emap is None:
            return None
        return emap.lookup(offset, size)

    def covers_any(self, block: Hashable, offset: int, size: int) -> bool:
        if not self._bitmap_touches(block, offset, size):
            return False
        emap = self._maps.get(block)
        return emap is not None and emap.covers_any(offset, size)

    def blocks(self) -> Iterator[Hashable]:
        return iter(self._maps)

    def extents(self, block: Hashable) -> Iterable[Extent]:
        emap = self._maps.get(block)
        return emap.extents() if emap else ()

    def extent_map(self, block: Hashable) -> Optional[ExtentMap]:
        return self._maps.get(block)

    def clear(self) -> None:
        self._maps.clear()
        self._bitmaps.clear()

    def __len__(self) -> int:
        return len(self._maps)

    @property
    def total_extents(self) -> int:
        return sum(len(m) for m in self._maps.values())

    @property
    def total_records_absorbed(self) -> int:
        return sum(m.records_absorbed for m in self._maps.values())

    @property
    def live_bytes(self) -> int:
        return sum(m.live_bytes for m in self._maps.values())

    # ------------------------------------------------------------ internals
    def _mark_bitmap(self, block: Hashable, offset: int, size: int) -> None:
        if not self.block_size:
            return
        bm = self._bitmaps.get(block)
        if bm is None:
            npages = -(-self.block_size // _BITMAP_PAGE)
            bm = self._bitmaps[block] = np.zeros(npages, dtype=bool)
        bm[offset // _BITMAP_PAGE : -(-(offset + size) // _BITMAP_PAGE)] = True

    def _bitmap_may_contain(self, block: Hashable, offset: int, size: int) -> bool:
        """Full-coverage pre-check for lookup: every touched page marked."""
        if not self.block_size:
            return True  # no bitmap: fall through to the extent map
        bm = self._bitmaps.get(block)
        if bm is None:
            return False
        lo = offset // _BITMAP_PAGE
        hi = -(-(offset + size) // _BITMAP_PAGE)
        return bool(bm[lo:hi].all())

    def _bitmap_touches(self, block: Hashable, offset: int, size: int) -> bool:
        """Any-overlap pre-check for covers_any: at least one page marked."""
        if not self.block_size:
            return True
        bm = self._bitmaps.get(block)
        if bm is None:
            return False
        lo = offset // _BITMAP_PAGE
        hi = -(-(offset + size) // _BITMAP_PAGE)
        return bool(bm[lo:hi].any())
