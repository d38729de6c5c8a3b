"""Typed background work items.

Every maintenance driver submits one of these to the shared
:class:`~repro.background.scheduler.BackgroundScheduler` before spending
device/network bandwidth: the item names the *stream* it belongs to (the
weighted-fair share it draws from), the OSD whose budget it charges, and
the byte cost being requested.  The items are plain frozen data — the
scheduler never executes work, it only paces and orders grants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

__all__ = [
    "STREAMS",
    "STREAM_WEIGHTS",
    "WorkItem",
    "RecycleOp",
    "ScrubOp",
    "RepairOp",
    "MoveOp",
]

#: the maintenance streams, in the deterministic order metrics report them
STREAMS = ("recycle", "scrub", "repair", "rebalance")

#: weighted-fair shares of the streams: repair is the most urgent (exposure
#: window), recycle feeds foreground progress (log quotas), scrub and
#: rebalance are patience work
STREAM_WEIGHTS = {"recycle": 2.0, "scrub": 1.0, "repair": 4.0, "rebalance": 1.0}


@dataclass(frozen=True)
class WorkItem:
    """One unit of background work charged to one OSD's budget."""

    stream: ClassVar[str] = "generic"

    osd: str
    nbytes: int
    tag: str = ""

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError(f"work item bytes must be >= 0, got {self.nbytes}")


@dataclass(frozen=True)
class RecycleOp(WorkItem):
    """Recycle one sealed log unit (TSUE pipeline layer) or drain one
    deferred parity log (PL flush)."""

    stream: ClassVar[str] = "recycle"


@dataclass(frozen=True)
class ScrubOp(WorkItem):
    """Read-verify one block of a stripe during a scrub pass."""

    stream: ClassVar[str] = "scrub"


@dataclass(frozen=True)
class RepairOp(WorkItem):
    """Rebuild one lost block (k source reads + one target write)."""

    stream: ClassVar[str] = "repair"


@dataclass(frozen=True)
class MoveOp(WorkItem):
    """Migrate one block to its new epoch home."""

    stream: ClassVar[str] = "rebalance"
