"""Configuration of the unified background-work scheduler.

Kept dependency-light (units only) so :mod:`repro.cluster.config` can embed
a :class:`BackgroundConfig` without importing the scheduler machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.control import validate_aimd
from repro.common.units import MiB

__all__ = ["BackgroundConfig"]


@dataclass(frozen=True)
class BackgroundConfig:
    """Knobs of the per-OSD maintenance arbiter and its SLO governor.

    ``enabled=False`` (the default) makes the whole subsystem a strict
    no-op: work submissions return without creating a single DES event, so
    default harness paths (fig1/table1, the pre-existing scenario catalog)
    are byte-identical with and without the subsystem present.
    """

    enabled: bool = False
    #: per-OSD background bandwidth budget (bytes/sec of granted work)
    bandwidth: float = 256 * MiB
    #: weighted-fair shares of the four maintenance streams: repair is the
    #: most urgent (exposure window), recycle feeds foreground progress
    #: (log quotas), scrub and rebalance are patience work
    weight_recycle: float = 2.0
    weight_scrub: float = 1.0
    weight_repair: float = 4.0
    weight_rebalance: float = 1.0
    #: subordination to foreground backlog: a grant whose device has queued
    #: foreground I/O waits ``yield_poll`` seconds and re-checks, at most
    #: ``max_yield_polls`` times per grant (the aging bound that makes the
    #: starvation-freedom property hold under sustained foreground load)
    yield_poll: float = 5e-4
    max_yield_polls: int = 8
    #: SLO-pressure governor: sample the windowed foreground p99 every
    #: ``interval`` seconds; a breach of ``p99_target`` cuts the background
    #: token scale multiplicatively (``backoff``), headroom restores it
    #: additively (``recover``); ``floor`` bounds the throttle so every
    #: admitted stream keeps making progress
    governor: bool = False
    p99_target: float = 0.02
    window: float = 0.05
    interval: float = 0.025
    backoff: float = 0.5
    recover: float = 0.2
    floor: float = 0.1

    def weight(self, stream: str) -> float:
        try:
            return getattr(self, f"weight_{stream}")
        except AttributeError:
            raise ValueError(f"unknown background stream {stream!r}") from None

    def validate(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("background bandwidth must be positive")
        for stream in ("recycle", "scrub", "repair", "rebalance"):
            if self.weight(stream) <= 0:
                raise ValueError(f"weight_{stream} must be positive")
        validate_aimd(
            backoff=self.backoff,
            recover=self.recover,
            floor=self.floor,
            target=self.p99_target,
            window=self.window,
            interval=self.interval,
        )
        if self.yield_poll <= 0 or self.max_yield_polls < 0:
            raise ValueError("invalid foreground-yield settings")
