"""Typed fault events and their triggers.

A :class:`FaultSchedule` is an ordered list of ``(Trigger, FaultEvent)``
pairs.  Triggers fire either at a simulated timestamp (``at``) or when a
predicate over the live cluster becomes true (``when`` — e.g. "after N log
units have been recycled"), polled on the DES at ``poll`` granularity.
Everything is plain data, so a schedule is reusable across runs and — given
one seed — replays identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.ecfs import ECFS

__all__ = [
    "Trigger",
    "FaultEvent",
    "CrashOSD",
    "BounceOSD",
    "DegradeNIC",
    "PartitionNet",
    "SlowDisk",
    "StickDisk",
    "CorruptBlock",
    "ScrubPass",
    "OSDJoin",
    "OSDDecommission",
    "WeightChange",
    "FaultSchedule",
    "after_ops",
    "after_recycles",
    "after_drain",
    "mid_rebalance",
    "total_recycled_units",
]


@dataclass(frozen=True)
class Trigger:
    """When an event fires: a sim timestamp or a cluster predicate."""

    at: Optional[float] = None
    when: Optional[Callable[["ECFS"], bool]] = None
    #: predicate poll period (simulated seconds) — well under the sim time
    #: of a small workload, so faults genuinely land mid-flight
    poll: float = 0.001

    def __post_init__(self) -> None:
        if (self.at is None) == (self.when is None):
            raise ValueError("exactly one of `at` / `when` must be set")


class FaultEvent:
    """Marker base class for injectable events."""


@dataclass(frozen=True)
class CrashOSD(FaultEvent):
    """Abrupt, permanent node loss; optionally drive a full rebuild.

    ``detect_delay`` models failure-detection latency (heartbeat timeout)
    between the crash and the moment recovery starts.
    """

    osd: int
    recover: bool = True
    detect_delay: float = 0.0


@dataclass(frozen=True)
class BounceOSD(FaultEvent):
    """Transient downtime: the node returns after ``downtime`` seconds with
    its contents intact (rolling-restart element; no rebuild)."""

    osd: int
    downtime: float = 1.0


@dataclass(frozen=True)
class DegradeNIC(FaultEvent):
    """NIC degradation on one node; restored after ``duration`` (None: for
    the rest of the run)."""

    node: str
    bw_factor: float = 1.0
    extra_latency: float = 0.0
    loss_prob: float = 0.0
    duration: Optional[float] = None


@dataclass(frozen=True)
class PartitionNet(FaultEvent):
    """Cut ``group`` off from the rest of the fabric; heal after
    ``heal_after`` seconds (None: stays cut)."""

    group: tuple[str, ...]
    heal_after: Optional[float] = None


@dataclass(frozen=True)
class SlowDisk(FaultEvent):
    """Multiply one OSD's device service times by ``factor``; restored
    after ``duration`` (None: for the rest of the run)."""

    osd: int
    factor: float = 4.0
    duration: Optional[float] = None


@dataclass(frozen=True)
class StickDisk(FaultEvent):
    """Hang one OSD's device for ``duration`` seconds (queued commands
    stall, then drain)."""

    osd: int
    duration: float = 0.05


@dataclass(frozen=True)
class CorruptBlock(FaultEvent):
    """Inject a latent sector error into the ``nth`` known block (sorted
    order — deterministic).  ``kind`` narrows the victim set to "data",
    "parity", or "any" blocks."""

    nth: int = 0
    kind: str = "parity"  # "data" | "parity" | "any"
    offset: int = 0
    nbytes: int = 512


@dataclass(frozen=True)
class ScrubPass(FaultEvent):
    """Run one scrub pass over the cluster (repairing if asked).

    ``freeze=True`` selects the under-load mode: stripes with in-flight
    activity are settled and frozen for the capture instead of skipped —
    required when the pass runs concurrently with foreground traffic.
    ``passes`` repeats the full walk back-to-back (a bounded stand-in for
    the continuous scrub loop of a production store).
    """

    repair: bool = True
    freeze: bool = False
    passes: int = 1


@dataclass(frozen=True)
class OSDJoin(FaultEvent):
    """Elastic growth: a new OSD (its own failure domain unless ``host``
    says otherwise) joins, the placement epoch advances, and — unless
    ``rebalance`` is off — a background rebalancer migrates the newcomer's
    share of blocks at ``bw_cap`` bytes/sec while traffic keeps flowing."""

    weight: float = 1.0
    host: Optional[int] = None
    rack: Optional[int] = None
    rebalance: bool = True
    bw_cap: Optional[float] = None
    parallel: int = 2


@dataclass(frozen=True)
class OSDDecommission(FaultEvent):
    """Graceful removal: the node leaves placement, a rebalance drains its
    blocks to the survivors, and (``retire``) it is then taken out of
    service — the planned counterpart of :class:`CrashOSD`."""

    osd: int
    retire: bool = True
    bw_cap: Optional[float] = None
    parallel: int = 2


@dataclass(frozen=True)
class WeightChange(FaultEvent):
    """Reweight one device (capacity upgrade / pre-failure drain): CRUSH
    policies shift a proportional share of blocks on the epoch advance."""

    osd: int
    weight: float
    rebalance: bool = True
    bw_cap: Optional[float] = None
    parallel: int = 2


@dataclass
class FaultSchedule:
    """Ordered (trigger, event) pairs; same-time events apply in order."""

    entries: list[tuple[Trigger, FaultEvent]] = field(default_factory=list)

    def at(self, t: float, event: FaultEvent) -> "FaultSchedule":
        self.entries.append((Trigger(at=t), event))
        return self

    def when(
        self,
        predicate: Callable[["ECFS"], bool],
        event: FaultEvent,
        poll: float = 0.001,
    ) -> "FaultSchedule":
        self.entries.append((Trigger(when=predicate, poll=poll), event))
        return self

    def __iter__(self) -> Iterator[tuple[Trigger, FaultEvent]]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


# ---------------------------------------------------------------- predicates
def after_ops(n: int) -> Callable[["ECFS"], bool]:
    """True once the cluster completed ``n`` client ops (updates + reads) —
    the standard way to land a fault mid-workload deterministically."""

    def pred(ecfs: "ECFS") -> bool:
        return ecfs.metrics.updates.count + ecfs.metrics.reads.count >= n

    return pred


def total_recycled_units(ecfs: "ECFS") -> int:
    """Units fully recycled so far (0 for methods without log pools)."""
    return getattr(ecfs.method, "recycled_units", 0)


def after_recycles(n: int) -> Callable[["ECFS"], bool]:
    """True once ``n`` log units finished recycling — lands a fault in the
    thick of background recycling."""

    def pred(ecfs: "ECFS") -> bool:
        return total_recycled_units(ecfs) >= n

    return pred


def mid_rebalance(min_moved: int = 1) -> Callable[["ECFS"], bool]:
    """True while a rebalance is actively migrating: the placement epoch
    advanced, at least ``min_moved`` blocks already landed at new homes,
    and moves remain outstanding — the window a crash-during-rebalance
    scenario must hit (an epoch check alone fires before any byte moved)."""

    def pred(ecfs: "ECFS") -> bool:
        if ecfs.placement.epoch < 1 or ecfs.placement.balanced():
            return False
        return ecfs.metrics.rebalance_stats()["moved_blocks"] >= min_moved

    return pred


def after_drain(ecfs: "ECFS") -> bool:
    """True when no log debt is outstanding anywhere (quiet cluster)."""
    return all(
        ecfs.method.log_debt_bytes(osd) == 0 for osd in ecfs.osds if not osd.failed
    )
