"""NIC + switch fabric on the DES, with injectable link faults.

Fault hooks (driven by :mod:`repro.fault`): per-node degradation
(:meth:`NetworkFabric.degrade` — bandwidth factor, extra latency, loss
probability with deterministic retransmit) and group partitions
(:meth:`NetworkFabric.partition` / :meth:`NetworkFabric.heal` — transfers
across the cut block until the partition heals, which is how heartbeat
timeouts "see" a partitioned node as dead).

:meth:`NetworkFabric.transfer` is the one timing model of a message, fault
path and fault-free path alike: every message in the tree, a fan-out leg
included, is a ``yield from transfer(...)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Iterable

import numpy as np

from repro.common.units import Gbps
from repro.sim import (
    CountdownLatch,
    Environment,
    Event,
    Process,
    s_to_us,
    spawn_fanout,
)

__all__ = ["NetParams", "LinkFault", "NIC", "NetworkFabric"]


@dataclass(frozen=True)
class NetParams:
    """Endpoint and fabric parameters.

    Defaults model the paper's SSD testbed: 25 Gb/s Ethernet, ~10 us
    one-way port-to-port latency, full-duplex NICs.
    """

    bandwidth: float = Gbps(25)  # bytes/second per NIC direction
    latency: float = 10e-6  # one-way propagation + switching
    per_message_overhead: float = 2e-6  # stack/serialization cost

    def validate(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency < 0 or self.per_message_overhead < 0:
            raise ValueError("latencies must be non-negative")


@dataclass(frozen=True)
class LinkFault:
    """Perturbation applied to one node's NIC (both directions)."""

    bw_factor: float = 1.0  # multiplies usable bandwidth (0 < f <= 1)
    extra_latency: float = 0.0  # added one-way latency in seconds
    loss_prob: float = 0.0  # per-message drop probability (retransmitted)

    def validate(self) -> None:
        if not 0 < self.bw_factor <= 1:
            raise ValueError("bw_factor must be in (0, 1]")
        if self.extra_latency < 0:
            raise ValueError("extra_latency must be non-negative")
        if not 0 <= self.loss_prob < 1:
            raise ValueError("loss_prob must be in [0, 1)")


class NIC:
    """Full-duplex endpoint: independent TX and RX serializers, each a clock
    (``tx_free`` / ``rx_free``: the µs tick the port next falls idle)."""

    __slots__ = ("tx_free", "rx_free")

    def __init__(self) -> None:
        self.tx_free = 0
        self.rx_free = 0


class NetworkFabric:
    """Registry of NICs plus the transfer primitive.

    ``transfer(src, dst, nbytes)`` is a process generator modelling a one-way
    message, store-and-forward: the per-message overhead plus the full wire
    time on ``src``'s TX port, the switch latency, then the full wire time
    again on ``dst``'s RX port.  Each port serves its messages one at a time
    in the order they reach it (TX: send order; RX: arrival order, send
    order within one µs).  A message whose sender is cancelled keeps the
    port time it reserved: bytes committed to the wire stay committed.
    """

    #: backoff before a lost message is retransmitted (µs)
    RETRANSMIT_TIMEOUT_US = 1_000

    def __init__(
        self,
        env: Environment,
        params: NetParams | None = None,
        fault_seed: int = 0x5EED,
    ) -> None:
        self.env = env
        self.params = params or NetParams()
        self.params.validate()
        # native integer-µs constants for the transfer hot path
        self._overhead_us = s_to_us(self.params.per_message_overhead)
        self._latency_us = s_to_us(self.params.latency)
        self._us_per_byte = 1e6 / self.params.bandwidth
        self.nics: dict[str, NIC] = {}
        self.total_bytes = 0
        self.total_msgs = 0
        # fault state
        self._faults: dict[str, LinkFault] = {}
        self._groups: dict[str, int] = {}  # node -> partition group (default 0)
        self._heal_waiters: list[Event] = []
        self._loss_rng = np.random.default_rng(fault_seed)
        self.dropped_msgs = 0

    def add_node(self, name: str) -> NIC:
        if name in self.nics:
            raise ValueError(f"node {name!r} already registered")
        nic = NIC()
        self.nics[name] = nic
        return nic

    # --------------------------------------------------------- fault control
    def degrade(
        self,
        node: str,
        bw_factor: float = 1.0,
        extra_latency: float = 0.0,
        loss_prob: float = 0.0,
    ) -> None:
        """Degrade one node's NIC (applies to its sends and receives)."""
        self._nic(node)  # validate the name
        fault = LinkFault(bw_factor, extra_latency, loss_prob)
        fault.validate()
        self._faults[node] = fault

    def restore(self, node: str) -> None:
        """Remove any degradation on ``node``."""
        self._faults.pop(node, None)

    def partition(self, *groups: Iterable[str]) -> None:
        """Split the fabric: each ``groups`` entry becomes an island; nodes
        not named stay together in the default island.  Transfers across
        islands block until the cut between their endpoints is gone (a new
        partition layout re-evaluates them, a :meth:`heal` releases all)."""
        assignment: dict[str, int] = {}
        for gid, group in enumerate(groups, start=1):
            for node in group:
                self._nic(node)  # validate
                assignment[node] = gid
        self._groups = assignment
        # a new layout may reconnect endpoints of parked transfers: wake
        # them all; each re-checks reachability and re-parks if still cut
        waiters, self._heal_waiters = self._heal_waiters, []
        for waiter in waiters:
            if not waiter.triggered:
                waiter.succeed()

    def heal(self) -> None:
        """Rejoin all partitions; blocked transfers resume immediately."""
        self._groups = {}
        waiters, self._heal_waiters = self._heal_waiters, []
        for waiter in waiters:
            if not waiter.triggered:
                waiter.succeed()

    def reachable(self, src: str, dst: str) -> bool:
        return self._groups.get(src, 0) == self._groups.get(dst, 0)

    def transfer(self, src: str, dst: str, nbytes: int) -> Generator:
        """Move ``nbytes`` from ``src`` to ``dst``; yields until delivered."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if src == dst:
            return  # local move: no network cost, no accounting
        src_nic = self._nic(src)
        dst_nic = self._nic(dst)

        # A cut link delivers nothing: wait for the partition to heal.
        if self._groups:
            while not self.reachable(src, dst):
                waiter = self.env.event()
                self._heal_waiters.append(waiter)
                yield waiter

        if self._faults:
            src_fault = self._faults.get(src)
            dst_fault = self._faults.get(dst)
            bw_factor = min(
                src_fault.bw_factor if src_fault else 1.0,
                dst_fault.bw_factor if dst_fault else 1.0,
            )
            extra_latency = (src_fault.extra_latency if src_fault else 0.0) + (
                dst_fault.extra_latency if dst_fault else 0.0
            )
            loss = 1.0 - (1.0 - (src_fault.loss_prob if src_fault else 0.0)) * (
                1.0 - (dst_fault.loss_prob if dst_fault else 0.0)
            )
            wire_us = round(nbytes * self._us_per_byte / bw_factor)
            extra_us = s_to_us(extra_latency)
            # Lossy links retransmit after a timeout (deterministic RNG
            # stream).
            while loss > 0 and self._loss_rng.random() < loss:
                self.dropped_msgs += 1
                yield self.env.timeout_us(self.RETRANSMIT_TIMEOUT_US)
        else:
            # fault-free fast path (the overwhelmingly common case): no
            # fault-dict probes, no loss draw
            extra_us = 0
            wire_us = round(nbytes * self._us_per_byte)

        # A FIFO port whose service time is known on arrival needs no queue:
        # a message starts at max(now, free).  TX is reserved on send (one
        # timeout through propagation), RX on arrival.
        env = self.env
        now = env.now_us
        start = src_nic.tx_free if src_nic.tx_free > now else now
        src_nic.tx_free = sent = start + self._overhead_us + wire_us
        yield env.timeout_us(sent + self._latency_us + extra_us - now)
        now = env.now_us
        start = dst_nic.rx_free if dst_nic.rx_free > now else now
        dst_nic.rx_free = done = start + wire_us
        yield env.timeout_us(done - now)
        self.total_bytes += nbytes
        self.total_msgs += 1

    def transfer_chain(self, src: str, dst: str, nbytes: int) -> Process:
        """:meth:`transfer` as a process.  Exists only for perfbench, which
        binds and calls this name, until ROADMAP item 5.1 deletes it."""
        return self.env.process(self.transfer(src, dst, nbytes))

    def transfer_many(self, legs: Iterable[tuple[str, str, int]]) -> CountdownLatch:
        """A fan-out of :meth:`transfer` legs.  Exists only for perfbench,
        which binds this name, until ROADMAP item 5.1 deletes it."""
        return spawn_fanout(self.env, [self.transfer(s, d, n) for s, d, n in legs])

    def rpc(self, src: str, dst: str, request_bytes: int, reply_bytes: int) -> Generator:
        """Round trip: request then reply (used for read-old-data fetches)."""
        yield from self.transfer(src, dst, request_bytes)
        yield from self.transfer(dst, src, reply_bytes)

    def _nic(self, name: str) -> NIC:
        try:
            return self.nics[name]
        except KeyError:
            raise KeyError(f"unknown node {name!r}") from None

