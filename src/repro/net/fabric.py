"""NIC + switch fabric on the DES, with injectable link faults.

Fault hooks (driven by :mod:`repro.fault`): per-node degradation
(:meth:`NetworkFabric.degrade` — bandwidth factor, extra latency, loss
probability with deterministic retransmit) and group partitions
(:meth:`NetworkFabric.partition` / :meth:`NetworkFabric.heal` — transfers
across the cut block until the partition heals, which is how heartbeat
timeouts "see" a partitioned node as dead).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Iterable

import numpy as np

from repro.common.units import Gbps
from repro.sim import Chain, CountdownLatch, Environment, Event, Resource, s_to_us
from repro.sim.batch import drive_chain
from repro.sim.core import _PROCESSED

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
    """Full-duplex endpoint: independent TX and RX serializers."""

    def __init__(self, env: Environment, name: str, params: NetParams) -> None:
        self.env = env
        self.name = name
        self.params = params
        self.tx = Resource(env, capacity=1)
        self.rx = Resource(env, capacity=1)
        self.tx_bytes = 0
        self.rx_bytes = 0
        self.tx_msgs = 0
        self.rx_msgs = 0


class NetworkFabric:
    """Registry of NICs plus the transfer primitive.

    ``transfer(src, dst, nbytes)`` is a process generator modelling a one-way
    message: serialize out of ``src``'s TX at link rate, cross the switch
    (latency), land in ``dst``'s RX at link rate (store-and-forward; the two
    serializations overlap in reality, so only the slower endpoint charges
    full transfer time — here symmetric rates, so we charge TX fully and RX
    nominally to model full-duplex pipelining without double-counting time).
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
        nic = NIC(self.env, name, self.params)
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

    @property
    def partitioned(self) -> bool:
        return bool(self._groups)

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

        env = self.env
        with src_nic.tx.request() as tx:
            yield tx
            yield env.timeout_us(self._overhead_us + wire_us)
        # Propagation through the fabric.
        yield env.timeout_us(self._latency_us + extra_us)
        # Receiver-side occupancy: the RX port is busy for the wire time too
        # (it cannot accept two full-rate flows at once).
        with dst_nic.rx.request() as rx:
            yield rx
            yield env.timeout_us(wire_us)

        src_nic.tx_bytes += nbytes
        src_nic.tx_msgs += 1
        dst_nic.rx_bytes += nbytes
        dst_nic.rx_msgs += 1
        self.total_bytes += nbytes
        self.total_msgs += 1

    def transfer_chain(self, src: str, dst: str, nbytes: int) -> Chain:
        """:meth:`transfer` as a flat event chain (macro-op batching).

        Timing-equivalent to ``yield from transfer(...)`` at the call point:
        the TX request is taken now, each segment's timeout carries a plain
        callback instead of a generator resume, and the chain finishes
        *inline* at the final RX-hold pop — zero extra queue hops.  Any
        fault/partition state falls back to driving the legacy generator so
        loss-RNG draw order and heal waits stay byte-identical.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        env = self.env
        chain = Chain(env)
        if src == dst:
            chain._state = _PROCESSED  # local move: already delivered
            return chain
        if self._groups or self._faults:
            return drive_chain(env, self.transfer(src, dst, nbytes))
        _TransferChain(self, chain, self._nic(src), self._nic(dst), nbytes)
        return chain

    def transfer_many(
        self, legs: Iterable[tuple[str, str, int]]
    ) -> CountdownLatch:
        """Batched fan-out of independent transfers: one latch instead of a
        process + ``AllOf`` membership per leg.  Each leg keeps its own TX
        request (taken in list order, as consecutive leg processes would
        have), so contention order under shared NICs is unchanged."""
        env = self.env
        chains = [self.transfer_chain(s, d, n) for (s, d, n) in legs]
        latch = CountdownLatch(env, len(chains))
        if not chains:
            latch.succeed()
            return latch
        for ch in chains:
            if ch._state >= _PROCESSED:
                latch.leg_done()  # local move; relay fires if it was last
            else:
                latch.count_event(ch)
        return latch

    def rpc(self, src: str, dst: str, request_bytes: int, reply_bytes: int) -> Generator:
        """Round trip: request then reply (used for read-old-data fetches)."""
        yield from self.transfer(src, dst, request_bytes)
        yield from self.transfer(dst, src, reply_bytes)

    def _nic(self, name: str) -> NIC:
        try:
            return self.nics[name]
        except KeyError:
            raise KeyError(f"unknown node {name!r}") from None


class _TransferChain:
    """One in-flight :meth:`NetworkFabric.transfer_chain`: a slotted state
    machine reused as the callback of every segment event, so a transfer
    allocates two objects (chain + this) instead of a closure per stage.
    Stage timing is identical to the legacy generator: TX grant → TX hold
    (overhead + wire) → release + propagation → RX grant → RX hold (wire)
    → release, counters, inline finish."""

    __slots__ = ("fabric", "chain", "src_nic", "dst_nic", "nbytes",
                 "wire_us", "stage", "tx_req", "rx_req")

    def __init__(
        self,
        fabric: "NetworkFabric",
        chain: Chain,
        src_nic: NIC,
        dst_nic: NIC,
        nbytes: int,
    ) -> None:
        self.fabric = fabric
        self.chain = chain
        self.src_nic = src_nic
        self.dst_nic = dst_nic
        self.nbytes = nbytes
        self.wire_us = round(nbytes * fabric._us_per_byte)
        self.stage = 0
        self.rx_req = None
        tx_req = self.tx_req = src_nic.tx.request()
        if tx_req._state >= _PROCESSED:
            self(tx_req)
        else:
            tx_req.callbacks.append(self)

    def __call__(self, ev: Event) -> None:
        stage = self.stage
        fabric = self.fabric
        env = fabric.env
        if stage == 0:  # TX granted: hold for overhead + wire time
            self.stage = 1
            hold = env.timeout_us(fabric._overhead_us + self.wire_us)
            hold.callbacks.append(self)
        elif stage == 1:  # TX hold done: release, propagate
            self.src_nic.tx.release(self.tx_req)
            self.stage = 2
            prop = env.timeout_us(fabric._latency_us)
            prop.callbacks.append(self)
        elif stage == 2:  # propagated: claim the RX port
            self.stage = 3
            rx_req = self.rx_req = self.dst_nic.rx.request()
            if rx_req._state >= _PROCESSED:
                self(rx_req)
            else:
                rx_req.callbacks.append(self)
        elif stage == 3:  # RX granted: hold for wire time
            self.stage = 4
            hold = env.timeout_us(self.wire_us)
            hold.callbacks.append(self)
        else:  # RX hold done: release, account, finish inline
            self.dst_nic.rx.release(self.rx_req)
            nbytes = self.nbytes
            src_nic = self.src_nic
            dst_nic = self.dst_nic
            src_nic.tx_bytes += nbytes
            src_nic.tx_msgs += 1
            dst_nic.rx_bytes += nbytes
            dst_nic.rx_msgs += 1
            fabric.total_bytes += nbytes
            fabric.total_msgs += 1
            self.chain.finish()
