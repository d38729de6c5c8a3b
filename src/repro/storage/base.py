"""Common device machinery: I/O requests, sequentiality detection, counters,
and :meth:`StorageDevice.submit`, the one timing model of a device I/O."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Generator, Sequence

from repro.sim import (
    CountdownLatch,
    Environment,
    Process,
    Resource,
    s_to_us,
    spawn_fanout,
)

__all__ = ["IOKind", "IOPriority", "IORequest", "DeviceCounters", "StorageDevice"]


class IOKind(enum.Enum):
    READ = "read"
    WRITE = "write"


class IOPriority(enum.IntEnum):
    """Queue ordering on the device (lower value wins the queue).

    Three lanes, used end-to-end by every I/O submitter:

    * ``FOREGROUND`` — client-facing request work;
    * ``DEMOTED`` — foreground work whose deadline already expired: the
      tenant stopped waiting, so it must not compete with live foreground
      traffic, but it still beats maintenance (its effects are acked state);
    * ``BACKGROUND`` — the maintenance plane (recycle, scrub, repair,
      rebalance), arbitrated by :mod:`repro.background`.
    """

    FOREGROUND = 0
    DEMOTED = 5
    BACKGROUND = 10


@dataclass(slots=True)
class IORequest:
    """One device I/O.

    ``stream`` names a logical access stream (e.g. "datalog-pool3",
    "blockstore"); the device decides sequential-vs-random per stream by
    comparing ``offset`` with the stream's previous end offset.

    ``overwrite`` marks writes that replace live data in place (the paper's
    write-penalty metric counts these separately from appends/first writes).
    """

    kind: IOKind
    offset: int
    size: int
    stream: str = "default"
    priority: int = IOPriority.FOREGROUND
    overwrite: bool = False
    tag: str = ""

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"I/O size must be positive, got {self.size}")
        if self.offset < 0:
            raise ValueError(f"I/O offset must be >= 0, got {self.offset}")


@dataclass
class DeviceCounters:
    """Cumulative op/byte counters, split by pattern and overwrite status."""

    reads: int = 0
    writes: int = 0
    read_bytes: int = 0
    write_bytes: int = 0
    overwrites: int = 0
    overwrite_bytes: int = 0
    seq_ops: int = 0
    rand_ops: int = 0
    busy_time: float = 0.0
    # background (recycle) share, for the fig6a analysis
    bg_ops: int = 0
    bg_bytes: int = 0

    def snapshot(self) -> dict[str, float]:
        return dict(self.__dict__)

    @property
    def total_ops(self) -> int:
        return self.reads + self.writes


class StorageDevice:
    """Base class: queued service of IORequests on the DES.

    Subclasses implement :meth:`_service_time_us` from their hardware model.
    ``channels`` is the device's internal parallelism (NVMe SSDs serve several
    commands concurrently; HDDs serve one).  :meth:`submit` is the device's
    one timing model: every I/O, a fan-out leg included, is a
    ``yield from submit(...)`` queued on :attr:`resource` by
    ``(priority, arrival)``.
    """

    #: gap (bytes) below which a follow-on access still counts as sequential
    SEQ_GAP = 4096

    def __init__(self, env: Environment, name: str, channels: int = 1) -> None:
        self.env = env
        self.name = name
        self.channels = channels
        self.resource = Resource(env, capacity=channels)
        self.counters = DeviceCounters()
        self._stream_end: dict[str, int] = {}
        # fault-injection state (repro.fault): service-time inflation and a
        # stuck interval during which no command completes
        self.slow_factor = 1.0
        self._stuck_until_us = 0
        self.fault_delay_time = 0.0

    # ------------------------------------------------------------------ API
    def submit(self, req: IORequest) -> Generator:
        """Process generator: queue on the device, hold it for the service
        time, update counters.  Yields until the I/O completes.
        """
        with self.resource.request(priority=req.priority) as grant:
            yield grant
            env = self.env
            now_us = env.now_us
            if now_us < self._stuck_until_us:
                delay_us = self._stuck_until_us - now_us
                self.fault_delay_time += delay_us / 1e6
                yield env.timeout_us(delay_us)
            sequential = self._classify(req)
            service_us = self._service_time_us(req, sequential)
            if self.slow_factor != 1.0:
                service_us = round(service_us * self.slow_factor)
            self._account(req, sequential, service_us / 1e6)
            yield env.timeout_us(service_us)

    def submit_chain(self, req: IORequest) -> Process:
        """:meth:`submit` as a process.  Exists only for perfbench, which
        binds this name, until ROADMAP item 5.1 deletes it."""
        return self.env.process(self.submit(req))

    def submit_many(self, reqs: Sequence[IORequest]) -> CountdownLatch:
        """A fan-out of :meth:`submit` legs.  Exists only for perfbench,
        which binds this name, until ROADMAP item 5.1 deletes it."""
        return spawn_fanout(self.env, [self.submit(req) for req in reqs])

    # --------------------------------------------------------- fault control
    def set_slowdown(self, factor: float) -> None:
        """Inflate every service time by ``factor`` (1.0 restores health)."""
        if factor <= 0:
            raise ValueError("slowdown factor must be positive")
        self.slow_factor = factor

    def stick(self, duration: float) -> None:
        """Hang the device: commands at the head of the queue stall until
        ``duration`` seconds from now (models a stuck/timeout-prone disk)."""
        if duration < 0:
            raise ValueError("stuck duration must be non-negative")
        self._stuck_until_us = max(
            self._stuck_until_us, self.env.now_us + s_to_us(duration)
        )

    def estimate(self, req: IORequest) -> int:
        """Service time in µs the request *would* take now (no queueing, no
        state change) — used by latency-path analyses."""
        return self._service_time_us(req, self._peek_classify(req))

    # ------------------------------------------------------------ internals
    def _classify(self, req: IORequest) -> bool:
        """Sequentiality from the stream's access history; updates history."""
        last_end = self._stream_end.get(req.stream)
        sequential = (
            last_end is not None and 0 <= req.offset - last_end <= self.SEQ_GAP
        )
        self._stream_end[req.stream] = req.offset + req.size
        return sequential

    def _peek_classify(self, req: IORequest) -> bool:
        last_end = self._stream_end.get(req.stream)
        return last_end is not None and 0 <= req.offset - last_end <= self.SEQ_GAP

    def _service_time_us(self, req: IORequest, sequential: bool) -> int:
        """Integer-µs service time from the device's hardware model."""
        raise NotImplementedError

    def _account(self, req: IORequest, sequential: bool, service: float) -> None:
        c = self.counters
        if req.kind is IOKind.READ:
            c.reads += 1
            c.read_bytes += req.size
        else:
            c.writes += 1
            c.write_bytes += req.size
            if req.overwrite:
                c.overwrites += 1
                c.overwrite_bytes += req.size
        if sequential:
            c.seq_ops += 1
        else:
            c.rand_ops += 1
        if req.priority >= IOPriority.BACKGROUND:
            c.bg_ops += 1
            c.bg_bytes += req.size
        c.busy_time += service

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
