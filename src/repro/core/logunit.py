"""Fixed-size log units with the four-state lifecycle of Fig. 3.

Records are keyed by block whether or not the unit merges: its index's
level 1 maps a block to an ``ExtentMap`` or, unmerged, a ``RecordList``.
"""

from __future__ import annotations

import enum
from typing import Hashable, Optional

import numpy as np

from repro.common.errors import IntegrityError
from repro.core.index import TwoLevelIndex
from repro.core.intervals import MergePolicy

__all__ = ["LogUnitState", "LogUnit"]


class LogUnitState(enum.Enum):
    EMPTY = "empty"  # active or ready for appends
    RECYCLABLE = "recyclable"  # sealed, waiting for a recycle thread
    RECYCLING = "recycling"  # attached to a recycle thread
    RECYCLED = "recycled"  # done; a DataLog index stays a read cache until reuse


class LogUnit:
    """One append-only unit of a log pool.

    ``capacity`` bounds the *raw* appended bytes (the on-disk footprint of
    the append stream); the in-memory index may hold fewer live bytes thanks
    to merging.  Timestamps record the residence intervals behind Table 2:
    ``first_append_at`` → ``recycle_started_at`` is the buffer period,
    ``recycle_started_at`` → ``recycled_at`` the recycle period.
    """

    def __init__(
        self,
        unit_id: int,
        capacity: int,
        policy: MergePolicy,
        block_size: int,
        merge: bool = True,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.unit_id = unit_id
        self.capacity = capacity
        self.state = LogUnitState.EMPTY
        self.index = TwoLevelIndex(policy, block_size=block_size, merge=merge)
        self.used = 0
        #: extents a recycler already applied durably — consulted when a
        #: crashed/restarted recycle replays the unit so nothing re-applies
        self.recycle_progress: set = set()
        #: bumped on every reuse so (unit_id, generation) names one fill
        #: cycle uniquely — the basis of replay-dedup tokens
        self.generation = 0
        self.first_append_at: Optional[float] = None
        self.recycle_started_at: Optional[float] = None
        self.recycled_at: Optional[float] = None

    # ------------------------------------------------------------------ API
    def fits(self, nbytes: int) -> bool:
        return self.used + nbytes <= self.capacity

    def append(
        self,
        block: Hashable,
        offset: int,
        data: np.ndarray,
        now: float,
        own: bool = False,
    ) -> None:
        """Append a record (caller must have checked :meth:`fits`)."""
        if self.state is not LogUnitState.EMPTY:
            raise IntegrityError(f"append to unit in state {self.state}")
        nbytes = int(np.asarray(data).shape[0])
        if not self.fits(nbytes):
            raise IntegrityError("append overflows log unit")
        if self.first_append_at is None:
            self.first_append_at = now
        self.index.insert(block, offset, data, own=own)
        self.used += nbytes

    # -- lifecycle ----------------------------------------------------------
    def seal(self) -> None:
        self._transition(LogUnitState.EMPTY, LogUnitState.RECYCLABLE)

    def start_recycle(self, now: float) -> None:
        self._transition(LogUnitState.RECYCLABLE, LogUnitState.RECYCLING)
        self.recycle_started_at = now

    def finish_recycle(self, now: float) -> None:
        self._transition(LogUnitState.RECYCLING, LogUnitState.RECYCLED)
        self.recycled_at = now

    def reuse(self) -> None:
        """RECYCLED -> EMPTY: drop the retained (read-cache) index."""
        self._transition(LogUnitState.RECYCLED, LogUnitState.EMPTY)
        self.index.clear()
        self.used = 0
        self.recycle_progress.clear()
        self.generation += 1
        self.first_append_at = None
        self.recycle_started_at = None
        self.recycled_at = None

    def _transition(self, expect: LogUnitState, to: LogUnitState) -> None:
        if self.state is not expect:
            raise IntegrityError(
                f"unit {self.unit_id}: illegal transition {self.state} -> {to}"
            )
        self.state = to

    # -- residence windows (Table 2) ----------------------------------------
    @property
    def buffer_interval(self) -> Optional[float]:
        """Seconds from first append to recycle start."""
        if self.first_append_at is None or self.recycle_started_at is None:
            return None
        return self.recycle_started_at - self.first_append_at

    @property
    def recycle_interval(self) -> Optional[float]:
        if self.recycle_started_at is None or self.recycled_at is None:
            return None
        return self.recycled_at - self.recycle_started_at

    def __repr__(self) -> str:
        return (
            f"<LogUnit {self.unit_id} {self.state.value} "
            f"{self.used}/{self.capacity}B {len(self.index)} blocks>"
        )
