"""Common device machinery: I/O requests, sequentiality detection, counters."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Generator, Optional, Sequence

from repro.sim import Chain, CountdownLatch, Environment, PriorityResource, s_to_us
from repro.sim.core import _PROCESSED, Event

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


class _BatchLegDone:
    """Completion callback for one leg of a :meth:`StorageDevice.submit_many`
    fast-path batch: frees the leg's channel slot (one occurrence of the
    shared multi-grant) and counts down the latch."""

    __slots__ = ("resource", "grant", "latch")

    def __init__(self, resource: PriorityResource, grant, latch: CountdownLatch) -> None:
        self.resource = resource
        self.grant = grant
        self.latch = latch

    def __call__(self, _ev: Event) -> None:
        self.resource.release(self.grant)
        self.latch.leg_done()


class _SubmitChain:
    """One in-flight :meth:`StorageDevice.submit_chain`: a slotted state
    machine reused as the callback of every segment event (grant → stall →
    service hold → release + inline finish), so a chained I/O allocates two
    objects instead of a closure per stage."""

    __slots__ = ("device", "chain", "req", "grant", "stage")

    def __init__(self, device: "StorageDevice", chain: Chain, req: IORequest) -> None:
        self.device = device
        self.chain = chain
        self.req = req
        self.stage = 0
        grant = self.grant = device.resource.request(priority=req.priority)
        if grant._state >= _PROCESSED:
            self(grant)
        else:
            grant.callbacks.append(self)

    def __call__(self, ev: Event) -> None:
        stage = self.stage
        device = self.device
        env = device.env
        if stage == 0:  # granted: stall if the device is stuck
            self.stage = 1
            now_us = env.now_us
            if now_us < device._stuck_until_us:
                delay_us = device._stuck_until_us - now_us
                device.fault_delay_time += delay_us / 1e6
                stall = env.timeout_us(delay_us)
                stall.callbacks.append(self)
                return
            self(ev)
        elif stage == 1:  # start service
            self.stage = 2
            req = self.req
            sequential = device._classify(req)
            service_us = device._service_time_us(req, sequential)
            if device.slow_factor != 1.0:
                service_us = round(service_us * device.slow_factor)
            device._account(req, sequential, service_us / 1e6)
            hold = env.timeout_us(service_us)
            hold.callbacks.append(self)
        else:  # service done: free the channel, finish inline
            device.resource.release(self.grant)
            self.chain.finish()


class StorageDevice:
    """Base class: queued service of IORequests on the DES.

    Subclasses implement :meth:`_service_time_us` from their hardware model.
    ``channels`` is the device's internal parallelism (NVMe SSDs serve several
    commands concurrently; HDDs serve one).
    """

    #: gap (bytes) below which a follow-on access still counts as sequential
    SEQ_GAP = 4096

    def __init__(self, env: Environment, name: str, channels: int = 1) -> None:
        self.env = env
        self.name = name
        self.channels = channels
        self.resource = PriorityResource(env, capacity=channels)
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

    def submit_chain(self, req: IORequest) -> Chain:
        """:meth:`submit` as a flat event chain (macro-op batching): same
        grant → stall → classify → account → service sequence and the same
        release-at-completion ordering, with plain callbacks instead of a
        generator frame per resume."""
        chain = Chain(self.env)
        _SubmitChain(self, chain, req)
        return chain

    def submit_many(self, reqs: Sequence[IORequest]) -> CountdownLatch:
        """Batched fan-out of I/Os on this device: one latch + one grant
        object instead of a process/request/``AllOf`` member per leg.

        The uncontended fast path takes every channel slot with a single
        ``acquire_many`` grant and computes the per-leg service times in one
        vectorized pass; each leg still completes (and frees its slot) at
        its own service time, so a competing request arriving mid-batch
        sees exactly the channel availability the per-leg path would give
        it.  Contended or stuck devices fall back to per-leg chains, whose
        queueing order is byte-identical to legacy ``submit``."""
        env = self.env
        latch = CountdownLatch(env, len(reqs))
        if not reqs:
            latch.succeed()
            return latch
        resource = self.resource
        multi = None
        if env.now_us >= self._stuck_until_us:
            multi = resource.acquire_many(len(reqs))
        if multi is None:
            for req in reqs:
                chain = self.submit_chain(req)
                if chain._state >= _PROCESSED:
                    latch.leg_done()
                else:
                    latch.count_event(chain)
            return latch
        seqs = [self._classify(req) for req in reqs]
        services = self._service_times_us(reqs, seqs)
        slow = self.slow_factor
        for req, sequential, service_us in zip(reqs, seqs, services):
            if slow != 1.0:
                service_us = round(service_us * slow)
            self._account(req, sequential, service_us / 1e6)
            hold = env.timeout_us(service_us)
            hold.callbacks.append(_BatchLegDone(resource, multi, latch))
        return latch

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

    def _service_times_us(
        self, reqs: Sequence[IORequest], seqs: Sequence[bool]
    ) -> list[int]:
        """Per-leg service times for a :meth:`submit_many` batch.  Hot
        device models override with one numpy pass over the precomputed µs
        rates; results must match :meth:`_service_time_us` leg-for-leg."""
        return [self._service_time_us(r, s) for r, s in zip(reqs, seqs)]

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
