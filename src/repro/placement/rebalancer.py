"""Background rebalancer: executes a migration plan while traffic flows.

One DES process per worker drains the plan's move queue.  Each move charges
the real I/O and network cost of shipping the block, then waits for the
stripe to settle (no in-flight update, no unsettled parity delta, not
frozen), freezes the stripe for the capture -> commit window — exactly the
recovery discipline — copies the bytes to the destination, and commits the
new home through :meth:`PlacementMap.commit_move`.  Clients that resolved
the old home mid-flight chase the remap (see ``Client.update``).

Pacing comes from one of two places.  With the unified background
scheduler enabled (``ClusterConfig.background``), every move submits a
:class:`~repro.background.work.MoveOp` to the per-OSD arbiter's
``rebalance`` stream — weighted-fair against recycle/scrub/repair,
subordinated to foreground backlog, throttled by the SLO governor.
Otherwise the legacy global bandwidth cap applies: moves reserve their
slot on a shared token timeline, so a cap of B bytes/sec is honoured
regardless of worker parallelism.  The source copy is left in place until
the node is retired — an in-flight read that resolved the old home sees
the (at worst slightly stale) old bytes rather than a hole, matching how
production migrations double-serve during a transfer window.

Log content migrates with the block — the **settle-or-ship** protocol.
Before the capture the move asks the update method how many live log bytes
on the source address the block (:meth:`UpdateMethod.block_log_bytes`).  A
small debt settles in place first (recycle-before-move: the method's own
arbitered recycle machinery drains it — :meth:`UpdateMethod.settle_block`);
a large debt ships instead: the live DataLog/ParityLog extents are
captured under the freeze (:meth:`UpdateMethod.collect_block_logs`) and
replayed at the destination (:meth:`UpdateMethod.apply_shipped_logs`) with
the method's replay-dedup tokens guaranteeing exactly-once against the
source's own recycle or a crash replay.  Both pacing paths — the arbiter's
``rebalance`` stream and the legacy bandwidth cap — run the identical
protocol, so a crash *during* a rebalance is byte-safe either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

from repro.background.work import MoveOp
from repro.placement.planner import MigrationPlan
from repro.sim import s_to_us, spawn_fanout
from repro.storage.base import IOKind, IOPriority

if TYPE_CHECKING:  # pragma: no cover - type-only (avoids a package cycle)
    from repro.cluster.ecfs import ECFS
    from repro.cluster.ids import BlockId

__all__ = ["RebalanceReport", "Rebalancer"]


@dataclass
class RebalanceReport:
    """Outcome of executing one migration plan."""

    epoch: int
    planned: int
    moved_blocks: int
    moved_bytes: int
    skipped: int
    seconds: float
    imbalance_before: float
    imbalance_after: float
    #: live log bytes that travelled with their blocks (the ship path)
    shipped_log_bytes: int = 0

    @property
    def bandwidth(self) -> float:
        """Achieved migration throughput in bytes/second."""
        return self.moved_bytes / self.seconds if self.seconds > 0 else 0.0

    def summary(self) -> str:
        return (
            f"rebalance epoch {self.epoch}: {self.moved_blocks}/{self.planned} "
            f"blocks ({self.moved_bytes / 1e6:.1f} MB) in {self.seconds:.3f}s, "
            f"tail imbalance {self.imbalance_before:.2f} -> "
            f"{self.imbalance_after:.2f}"
        )


class Rebalancer:
    """Migrates blocks to their new epoch homes at a bandwidth cap."""

    def __init__(
        self,
        ecfs: "ECFS",
        bandwidth_cap: Optional[float] = None,
        parallel: int = 2,
        ship_threshold: Optional[int] = None,
    ) -> None:
        if bandwidth_cap is not None and bandwidth_cap <= 0:
            raise ValueError("bandwidth_cap must be positive (or None)")
        self.ecfs = ecfs
        self.bandwidth_cap = bandwidth_cap
        self.parallel = max(1, parallel)
        # settle-or-ship pivot: a block with at most this much pending log
        # content settles in place before its move (recycle-before-move);
        # more ships with the block instead of stalling the migration on a
        # long drain.  Default: one log unit's worth.
        self.ship_threshold = (
            ship_threshold
            if ship_threshold is not None
            else ecfs.config.log_unit_size
        )
        self.moved_blocks = 0
        self.moved_bytes = 0
        self.skipped = 0
        self.shipped_log_bytes = 0
        # shared token timeline: the instant the capped bandwidth frees up
        self._bw_free_at = 0.0

    # ------------------------------------------------------------------ API
    def run(self, plan: MigrationPlan) -> Generator:
        """Process: execute ``plan``; returns a :class:`RebalanceReport`."""
        ecfs = self.ecfs
        env = ecfs.env
        t0 = env.now
        before = ecfs.tail_imbalance()
        self._bw_free_at = t0
        queue = list(reversed(plan.moves))  # pop() drains in sorted order
        yield spawn_fanout(env, [self._worker(queue) for _ in range(self.parallel)])
        report = RebalanceReport(
            epoch=plan.epoch,
            planned=len(plan.moves),
            moved_blocks=self.moved_blocks,
            moved_bytes=self.moved_bytes,
            skipped=self.skipped,
            seconds=env.now - t0,
            imbalance_before=before,
            imbalance_after=ecfs.tail_imbalance(),
            shipped_log_bytes=self.shipped_log_bytes,
        )
        return report

    # ------------------------------------------------------------ internals
    def _worker(self, queue: list) -> Generator:
        from repro.common.errors import IntegrityError

        ecfs = self.ecfs
        env = ecfs.env
        while queue:
            op = queue.pop()
            try:
                yield from self._move(op.block, op.dst)
            except IntegrityError:
                # a node died mid-move: leave the block to recovery (the
                # remap entry keeps pointing at wherever it actually is)
                self.skipped += 1
                yield env.timeout_us(0)

    def _throttle(self, nbytes: int, src_name: str) -> Generator:
        """Pace one move: a ``rebalance``-stream grant from the unified
        background scheduler when it is enabled, else the legacy shared
        bandwidth-cap timeline."""
        ecfs = self.ecfs
        if ecfs.background.enabled:
            yield from ecfs.background.request(
                MoveOp(osd=src_name, nbytes=nbytes, tag="rebalance")
            )
            return
        env = ecfs.env
        if self.bandwidth_cap is None:
            return
        start = max(env.now, self._bw_free_at)
        self._bw_free_at = start + nbytes / self.bandwidth_cap
        if start > env.now:
            yield env.timeout_at_us(s_to_us(start))

    def _move(self, block: BlockId, dst: int) -> Generator:
        ecfs = self.ecfs
        env = ecfs.env
        bs = ecfs.config.block_size
        src_idx = ecfs.placement.home_of(block)
        if src_idx == dst or ecfs.osds[dst].failed:
            self.skipped += 1
            return
        src = ecfs.osds[src_idx]
        if src.failed:
            # the source died before we got to it: this block is recovery's
            # problem (rebuild re-homes it), not a migration
            self.skipped += 1
            return

        yield from self._throttle(bs, src.name)
        # charge the shipping cost up front (background priority); the bytes
        # themselves are captured atomically under the freeze below
        yield from src.io_block(
            IOKind.READ, block, 0, bs, IOPriority.BACKGROUND, tag="rebalance"
        )
        yield from ecfs.net.transfer(
            src.name, ecfs.osds[dst].name, bs + ecfs.config.header_bytes
        )

        # settle-or-ship: a little pending log content on the source drains
        # through the method's own (arbitered) recycle machinery before the
        # capture; a lot ships with the block below — after reserving its
        # bandwidth on the same pacing path the base bytes used, so the
        # legacy cap and the arbiter see the extra volume identically
        method = ecfs.method
        pending = method.block_log_bytes(src, block)
        if 0 < pending <= self.ship_threshold:
            yield from method.settle_block(src, block)
        elif pending:
            yield from self._throttle(pending, src.name)

        # settle: the shared reconstruction discipline (no in-flight update,
        # no unsettled parity delta, not frozen).  Log content addressed to
        # the block itself no longer blocks here — whatever remains at
        # freeze time is captured and shipped.
        key = (block.file_id, block.stripe)
        yield from ecfs.settle_stripe(block.file_id, block.stripe)
        ecfs.freeze_stripe(*key)
        try:
            if ecfs.placement.home_of(block) != src_idx:
                # re-homed while we waited (an overlapping recovery): the
                # remap already reflects reality — drop this move
                self.skipped += 1
                return
            if src.failed:
                self.skipped += 1
                return
            data = src.store.read(block)
            dosd = ecfs.osds[dst]
            yield from dosd.io_block(
                IOKind.WRITE, block, 0, bs, IOPriority.BACKGROUND, tag="rebalance"
            )
            dosd.store.put(block, data, own=True)
            # ship whatever live log content still addresses the block (the
            # fast path usually settled it to zero; races and the ship path
            # land here) — applied at the destination under the freeze, with
            # the method's dedup tokens preventing double-apply
            shipped = method.collect_block_logs(src, block)
            if shipped:
                nbytes = yield from method.apply_shipped_logs(
                    src, dosd, block, shipped
                )
                self.shipped_log_bytes += int(nbytes or 0)
            ecfs.placement.commit_move(block, dst)
            self.moved_blocks += 1
            self.moved_bytes += bs
            ecfs.metrics.record_rebalance(bs)
        finally:
            ecfs.thaw_stripe(*key)
