"""Rotation placement — the seed layout, now as a pluggable policy.

Each stripe's ``k+m`` blocks land on ``k+m`` distinct OSDs, rotated by a
per-stripe hash so data and parity load spread evenly (parity blocks of
different stripes live on different nodes).  The DataLog replica for a data
block goes to the *next* OSD in the stripe's rotation that hosts none of the
stripe's blocks — or, when n_osds == k+m, to the neighbour node, matching the
paper's REP-DataLog-S(X±1) layout in Fig. 4.

With the default contiguous ``active`` list this is **byte-compatible** with
the seed tree's layout: same mixing hash, same
rotation arithmetic, same replica fallback — asserted by the placement
property tests, so seed figures stay identical.

``active`` makes the rotation elastic: it rotates over an explicit ordered
list of node indices, so a joined node appends to the list and a
decommissioned node drops out.  Rotation has no notion of locality or
weight, so any membership change re-rotates nearly every stripe — that is
the policy's documented weakness and the contrast CRUSH exists to fix (see
``python -m repro topology``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from typing import Optional, Sequence

from repro.placement.base import PlacementPolicy, mix

if TYPE_CHECKING:  # pragma: no cover - type-only (avoids a package cycle)
    from repro.cluster.ids import BlockId

__all__ = ["RotationPolicy"]


class RotationPolicy(PlacementPolicy):
    """Hash-rotated striping over an ordered list of nodes."""

    name = "rotation"

    def __init__(
        self,
        n_osds: int,
        k: int,
        m: int,
        active: Optional[Sequence[int]] = None,
    ) -> None:
        if active is None:
            active = range(n_osds)
        self._active = [int(i) for i in active]
        if len(set(self._active)) != len(self._active):
            raise ValueError("active node list contains duplicates")
        if len(self._active) < k + m:
            raise ValueError("need n_osds >= k+m")
        super().__init__(k, m)

    @property
    def n_osds(self) -> int:
        return len(self._active)

    # ------------------------------------------------------------------ API
    def stripe_base(self, file_id: int, stripe: int) -> int:
        """First rotation slot of the stripe (slot space, not node ids)."""
        return mix(file_id, stripe) % len(self._active)

    def stripe_osds(self, file_id: int, stripe: int) -> list[int]:
        base = self.stripe_base(file_id, stripe)
        n = len(self._active)
        return [self._active[(base + i) % n] for i in range(self.k + self.m)]

    def replica_osd(self, block: BlockId) -> int:
        """Node hosting the DataLog replica for a data block: the next node
        after the stripe's span (wraps to base+idx+1 when the stripe covers
        every node)."""
        n = len(self._active)
        base = self.stripe_base(block.file_id, block.stripe)
        used = {(base + i) % n for i in range(self.k + self.m)}
        home_slot = (base + block.idx) % n
        if len(used) < n:
            cand = (base + self.k + self.m) % n
            while cand in used:
                cand = (cand + 1) % n
            return self._active[cand]
        return self._active[(home_slot + 1) % n]
