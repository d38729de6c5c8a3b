"""Epoch-aware placement: one policy per epoch plus per-block remaps.

The :class:`PlacementMap` is what the cluster actually consults.  It keeps

* the **current policy** — the ideal mapping of the current epoch, and
* a **remap table** — blocks whose *actual* home differs from the ideal:
  recovery re-homes (a rebuilt block lives wherever the rebuild put it) and
  blocks an in-flight rebalance has not migrated yet.

``osd_of`` answers with the ideal home (what the policy says), ``home_of``
with the actual home (remaps win) — recovery, I/O routing, and verification
all use ``home_of`` via :meth:`ECFS.osd_hosting`.

Advancing an epoch never mutates the outgoing policy (or its memo caches):
it computes the migration plan, folds every not-yet-ideal actual home into
the fresh remap table, and swaps in the new policy instance.  Stale-cache
audit: policy memo caches are per-instance and instances are immutable, so
a cache entry written under epoch N can never be consulted under epoch N+1
— the epoch bump replaces the instance wholesale, and the remap table (the
only mutable placement state) lives here, not in any policy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from typing import Iterable

from repro.placement.base import PlacementPolicy
from repro.placement.planner import MigrationPlan, MigrationPlanner

if TYPE_CHECKING:  # pragma: no cover - type-only (avoids a package cycle)
    from repro.cluster.ids import BlockId

__all__ = ["PlacementMap"]


class PlacementMap:
    """Current-epoch policy + actual-home remaps; the cluster's one oracle."""

    def __init__(self, policy: PlacementPolicy) -> None:
        self.policy = policy
        self.epoch = 0
        self._remaps: dict[BlockId, int] = {}

    # ----------------------------------------------------- policy delegation
    @property
    def n_osds(self) -> int:
        return self.policy.n_osds

    @property
    def k(self) -> int:
        return self.policy.k

    @property
    def m(self) -> int:
        return self.policy.m

    def osd_of(self, block: BlockId) -> int:
        """The *ideal* home under the current epoch's policy."""
        return self.policy.osd_of(block)

    def stripe_osds(self, file_id: int, stripe: int) -> list[int]:
        return self.policy.stripe_osds(file_id, stripe)

    def replica_osd(self, block: BlockId) -> int:
        return self.policy.replica_osd(block)

    # ------------------------------------------------------------ remapping
    @property
    def remapped(self) -> dict[BlockId, int]:
        """Blocks whose actual home differs from the epoch ideal (read-only
        by convention; mutate via :meth:`pin` / :meth:`advance`)."""
        return self._remaps

    def home_of(self, block: BlockId) -> int:
        """The *actual* home: remap if one exists, else the epoch ideal."""
        home = self._remaps.get(block)
        return home if home is not None else self.policy.osd_of(block)

    def pin(self, block: BlockId, osd_idx: int) -> None:
        """Record that ``block`` actually lives on ``osd_idx`` — a recovery
        re-home or a completed migration move.  Pinning a block *at* its
        ideal home clears the remap (the block is back in policy)."""
        if self.policy.osd_of(block) == osd_idx:
            self._remaps.pop(block, None)
        else:
            self._remaps[block] = osd_idx

    # a completed rebalance move is just a pin; the alias keeps call sites
    # self-describing
    commit_move = pin

    def balanced(self) -> bool:
        """True when every block sits at its epoch-ideal home."""
        return not self._remaps

    # --------------------------------------------------------------- epochs
    def advance(
        self, policy: PlacementPolicy, blocks: Iterable[BlockId]
    ) -> MigrationPlan:
        """Switch to ``policy`` as the next epoch's ideal mapping.

        Data does not move here: every block keeps its actual home, now
        expressed as a remap wherever that home is no longer ideal.  The
        returned plan is exactly those remaps as move ops — hand it to a
        :class:`~repro.placement.rebalancer.Rebalancer` to migrate at a
        bandwidth cap while foreground traffic keeps flowing.
        """
        blocks = list(blocks)
        plan = MigrationPlanner.plan(self.home_of, policy, blocks)
        remaps: dict[BlockId, int] = {}
        for op in plan.moves:
            remaps[op.block] = op.src
        self._remaps = remaps
        self.policy = policy
        self.epoch += 1
        plan.epoch = self.epoch
        return plan
