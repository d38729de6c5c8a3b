"""Migration planning: the diff between two placement epochs.

A :class:`MigrationPlan` is the exact set of per-block move ops that takes
the cluster from where blocks *are* (the outgoing epoch's actual homes,
remaps included) to where the incoming policy says they *should be*.  The
planner is pure bookkeeping — no simulated time, no I/O — so it doubles as
the analysis tool behind ``python -m repro topology``: plan a hypothetical
event and read off the movement fraction without running a cluster.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.placement.base import PlacementPolicy

if TYPE_CHECKING:  # pragma: no cover - type-only (avoids a package cycle)
    from repro.cluster.ids import BlockId

__all__ = ["MoveOp", "MigrationPlan", "MigrationPlanner"]


@dataclass(frozen=True)
class MoveOp:
    """One block that must travel from ``src`` to ``dst``."""

    block: BlockId
    src: int
    dst: int


@dataclass
class MigrationPlan:
    """Ordered move ops plus movement accounting for one epoch diff."""

    moves: list[MoveOp] = field(default_factory=list)
    total_blocks: int = 0
    epoch: int = 0  # the epoch this plan leads *into* (set by PlacementMap)

    @property
    def fraction_moved(self) -> float:
        return len(self.moves) / self.total_blocks if self.total_blocks else 0.0

    def moved_bytes(self, block_size: int) -> int:
        return len(self.moves) * block_size

    def sources(self) -> set[int]:
        return {op.src for op in self.moves}


class MigrationPlanner:
    """Diffs current block homes against a new policy's ideal homes."""

    @staticmethod
    def plan(
        current_home: Callable[[BlockId], int],
        new_policy: PlacementPolicy,
        blocks: Iterable[BlockId],
    ) -> MigrationPlan:
        """``current_home`` is the outgoing view (policy + remaps); the plan
        lists every block whose ideal home changes, in sorted block order so
        execution is deterministic."""
        plan = MigrationPlan()
        for block in sorted(blocks):
            plan.total_blocks += 1
            src = current_home(block)
            dst = new_policy.osd_of(block)
            if src != dst:
                plan.moves.append(MoveOp(block=block, src=src, dst=dst))
        return plan
