"""Deterministic fault injection onto a live ECFS cluster.

The :class:`FaultInjector` arms one DES process per schedule entry; each
waits for its trigger (timestamp or polled predicate), applies the event
through the cluster's fault hooks, and logs ``(sim time, description)``.
Crash events optionally drive a full :class:`RecoveryManager` rebuild after
a detection delay; bounce events restart the node and let the update method
replay whatever it buffered.  Everything is seed-deterministic: two runs of
the same schedule on the same seed produce identical event timings.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.cluster.recovery import RecoveryManager, RecoveryReport
from repro.cluster.scrub import ScrubReport, Scrubber
from repro.fault.events import (
    BounceOSD,
    CorruptBlock,
    CrashOSD,
    DegradeNIC,
    FaultEvent,
    FaultSchedule,
    OSDDecommission,
    OSDJoin,
    PartitionNet,
    ScrubPass,
    SlowDisk,
    StickDisk,
    Trigger,
    WeightChange,
)
from repro.placement.rebalancer import RebalanceReport, Rebalancer
from repro.sim import s_to_us

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.ecfs import ECFS

__all__ = ["FaultInjector"]


class FaultInjector:
    """Applies a :class:`FaultSchedule` to a cluster, one process per entry."""

    def __init__(self, ecfs: "ECFS", schedule: FaultSchedule) -> None:
        self.ecfs = ecfs
        self.schedule = schedule
        self.recovery = RecoveryManager(ecfs)
        self.log: list[tuple[float, str]] = []
        self.recovery_reports: list[RecoveryReport] = []
        self.scrub_reports: list[ScrubReport] = []
        self.rebalance_reports: list[RebalanceReport] = []
        self.corrupted: list = []  # BlockIds injected with latent errors
        #: events never applied: their predicate could no longer turn true
        #: (see :meth:`workload_finished`)
        self.skipped: list[str] = []
        self._procs: list = []
        self._polling: list[Trigger] = []  # predicate triggers still unfired
        self._workload_over = False

    # ------------------------------------------------------------------ API
    def start(self) -> None:
        env = self.ecfs.env
        for i, (trigger, event) in enumerate(self.schedule):
            self._procs.append(
                env.process(self._arm(trigger, event), name=f"fault-{i}")
            )

    def done(self):
        """Event firing when every scheduled fault (and its follow-up, e.g.
        a crash's recovery) has been applied or skipped."""
        return self.ecfs.env.all_of(self._procs)

    def workload_finished(self) -> None:
        """The workload was replayed and drained: no client op completes
        from here on.  A predicate trigger still false once every other
        fault process has finished can then never fire (``after_ops(n)``
        counts *completed* ops, and ops that failed during an outage leave
        the count short for good); it is skipped instead of polled forever."""
        self._workload_over = True

    # ------------------------------------------------------------ processes
    def _arm(self, trigger: Trigger, event: FaultEvent) -> Generator:
        env = self.ecfs.env
        if trigger.at is not None:
            if trigger.at > env.now:
                yield env.timeout_at_us(s_to_us(trigger.at))
        else:
            self._polling.append(trigger)
            try:
                while not trigger.when(self.ecfs):
                    if self._stalled():
                        self.skipped.append(type(event).__name__)
                        self._note(f"skip {type(event).__name__}: trigger cannot fire")
                        return
                    yield env.timeout_us(s_to_us(trigger.poll))
            finally:
                self._polling.remove(trigger)
        yield from self._apply(event)

    def _stalled(self) -> bool:
        """True when nothing is left that could turn a pending predicate
        true: the workload is over, every fault process still alive is
        itself polling, and none of their predicates holds right now (one
        that does fires later this tick and may unblock the others)."""
        return (
            self._workload_over
            and sum(p.is_alive for p in self._procs) == len(self._polling)
            and not any(t.when(self.ecfs) for t in self._polling)
        )

    def _note(self, text: str) -> None:
        self.log.append((self.ecfs.env.now, text))

    def _apply(self, event: FaultEvent) -> Generator:
        env = self.ecfs.env
        if isinstance(event, CrashOSD):
            self.ecfs.crash_osd(event.osd)
            self._note(f"crash osd{event.osd}")
            if event.recover:
                if event.detect_delay > 0:
                    yield env.timeout_us(s_to_us(event.detect_delay))
                report = yield env.process(
                    self.recovery.fail_and_recover(event.osd),
                    name=f"fault-recover-{event.osd}",
                )
                self.recovery_reports.append(report)
                self._note(f"recovered osd{event.osd}: {report.blocks_rebuilt} blocks")
        elif isinstance(event, BounceOSD):
            # a transient outage: no MDS declaration, no log teardown — the
            # node simply stops serving, then comes back with its data
            self.ecfs.stop_osd(event.osd)
            self._note(f"bounce osd{event.osd} down")
            yield env.timeout_us(s_to_us(event.downtime))
            self.ecfs.restart_osd(event.osd)
            self._note(f"bounce osd{event.osd} up")
        elif isinstance(event, DegradeNIC):
            self.ecfs.net.degrade(
                event.node, event.bw_factor, event.extra_latency, event.loss_prob
            )
            self._note(f"degrade nic {event.node}")
            if event.duration is not None:
                yield env.timeout_us(s_to_us(event.duration))
                self.ecfs.net.restore(event.node)
                self._note(f"restore nic {event.node}")
        elif isinstance(event, PartitionNet):
            self.ecfs.net.partition(event.group)
            self._note(f"partition {','.join(event.group)}")
            if event.heal_after is not None:
                yield env.timeout_us(s_to_us(event.heal_after))
                self.ecfs.net.heal()
                self._note("partition healed")
        elif isinstance(event, SlowDisk):
            device = self.ecfs.osds[event.osd].device
            device.set_slowdown(event.factor)
            self._note(f"slow disk osd{event.osd} x{event.factor}")
            if event.duration is not None:
                yield env.timeout_us(s_to_us(event.duration))
                device.set_slowdown(1.0)
                self._note(f"disk osd{event.osd} healthy")
        elif isinstance(event, StickDisk):
            self.ecfs.osds[event.osd].device.stick(event.duration)
            self._note(f"stick disk osd{event.osd} for {event.duration}s")
            yield env.timeout_us(s_to_us(event.duration))
        elif isinstance(event, CorruptBlock):
            bid = self._pick_block(event)
            osd = self.ecfs.osd_hosting(bid)
            nbytes = min(event.nbytes, self.ecfs.config.block_size - event.offset)
            osd.store.corrupt(bid, event.offset, nbytes)
            self.corrupted.append(bid)
            self._note(f"corrupt {bid} on {osd.name} ({nbytes}B)")
            yield env.timeout_us(0)
        elif isinstance(event, OSDJoin):
            osd, plan = self.ecfs.join_osd(
                weight=event.weight, host=event.host, rack=event.rack
            )
            self._note(
                f"join {osd.name} -> epoch {self.ecfs.placement.epoch} "
                f"({len(plan.moves)} moves planned)"
            )
            if event.rebalance:
                yield from self._rebalance(plan, event.bw_cap, event.parallel)
        elif isinstance(event, OSDDecommission):
            plan = self.ecfs.decommission_osd(event.osd)
            self._note(
                f"decommission osd{event.osd} -> epoch "
                f"{self.ecfs.placement.epoch} ({len(plan.moves)} moves planned)"
            )
            yield from self._rebalance(plan, event.bw_cap, event.parallel)
            if event.retire:
                retired = self.ecfs.retire_osd(event.osd)
                self._note(
                    f"retire osd{event.osd}: "
                    f"{'done' if retired else 'blocked (blocks remain)'}"
                )
        elif isinstance(event, WeightChange):
            plan = self.ecfs.set_osd_weight(event.osd, event.weight)
            self._note(
                f"reweight osd{event.osd} to {event.weight:g} -> epoch "
                f"{self.ecfs.placement.epoch} ({len(plan.moves)} moves planned)"
            )
            if event.rebalance:
                yield from self._rebalance(plan, event.bw_cap, event.parallel)
        elif isinstance(event, ScrubPass):
            for i in range(max(1, event.passes)):
                report = yield env.process(
                    Scrubber(
                        self.ecfs, repair=event.repair, freeze=event.freeze
                    ).scrub(),
                    name=f"fault-scrub{i}",
                )
                self.scrub_reports.append(report)
                self._note(
                    f"scrub: {report.stripes_checked} checked, "
                    f"{len(report.repaired)} repaired"
                )
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown fault event {event!r}")

    def _rebalance(self, plan, bw_cap, parallel) -> Generator:
        rebalancer = Rebalancer(self.ecfs, bandwidth_cap=bw_cap, parallel=parallel)
        report = yield self.ecfs.env.process(
            rebalancer.run(plan), name=f"fault-rebalance-{plan.epoch}"
        )
        self.rebalance_reports.append(report)
        self._note(report.summary())

    def _pick_block(self, event: CorruptBlock):
        k = self.ecfs.rs.k
        pool = sorted(self.ecfs.known_blocks)
        if event.kind == "data":
            pool = [b for b in pool if b.idx < k]
        elif event.kind == "parity":
            pool = [b for b in pool if b.idx >= k]
        elif event.kind != "any":
            raise ValueError(f"unknown corruption kind {event.kind!r}")
        pool = [b for b in pool if not self.ecfs.osd_hosting(b).failed]
        if not pool:
            raise ValueError("no eligible block to corrupt")
        return pool[event.nth % len(pool)]
