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
    #: per-OSD background bandwidth budget (bytes/sec of granted work); the
    #: streams' weighted-fair shares are
    #: :data:`~repro.background.work.STREAM_WEIGHTS`
    bandwidth: float = 256 * MiB
    #: SLO-pressure governor: sample the windowed foreground p99 every
    #: ``interval`` seconds; a breach of ``p99_target`` cuts the background
    #: token scale multiplicatively, headroom restores it additively (the
    #: step sizes are :mod:`repro.background.scheduler` constants);
    #: ``floor`` bounds the throttle so every admitted stream keeps making
    #: progress
    governor: bool = False
    p99_target: float = 0.02
    window: float = 0.05
    interval: float = 0.025
    floor: float = 0.1

    def validate(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("background bandwidth must be positive")
        validate_aimd(target=self.p99_target, window=self.window)
        if self.interval <= 0 or not 0 < self.floor <= 1:
            raise ValueError("invalid governor interval/floor")
