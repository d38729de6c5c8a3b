"""Common machinery for update methods.

An update method is attached to an :class:`~repro.cluster.ecfs.ECFS` and
handles update/read requests *on the OSD that owns the data block*.  The
base class provides the shared building blocks of Fig. 1:

* :meth:`data_rmw` — the in-place read-modify-write of a data block that
  every SOTA incremental method performs in the critical path (returns the
  data delta),
* :meth:`parity_rmw` — in-place application of a parity delta at a parity
  OSD,
* :meth:`forward` — a one-way payload transfer between two OSDs.

Methods override :meth:`handle_update`; the default :meth:`handle_read`
serves the in-place block (correct for every method whose data blocks are
updated in place; log-structured methods override it).
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Generator, Iterable, Iterator

import numpy as np

from repro.cluster.client import UpdateOp
from repro.cluster.ids import BlockId
from repro.cluster.osd import OSD
from repro.common.errors import IntegrityError
from repro.common.refcount import RefCounter
from repro.storage.base import IOKind, IOPriority

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.ecfs import ECFS

__all__ = ["UpdateMethod"]


class UpdateMethod:
    """Base class; subclasses set ``name`` and implement ``handle_update``."""

    name = "base"

    def __init__(self, ecfs: "ECFS") -> None:
        self.ecfs = ecfs
        # stripes whose popped log content is mid-application (the entries
        # left the visible log but their parity work has not finished):
        # counted so overlapping recycles nest correctly; the last release
        # of a stripe wakes event-based settlement waiters (reconstruction,
        # drains) parked on it
        self._busy_stripes = RefCounter(on_zero=ecfs.notify_stripe)
        # parity ROWS that missed a delta because their node was down (the
        # op's data committed in place): each is re-encoded from data once
        # its host is reachable — the model's equivalent of a degraded-
        # stripe resync on peering.  A row whose host stays dead is the
        # rebuild's job (decode/re-encode), not the resync's.
        self._parity_resync: set[BlockId] = set()
        # log bytes outstanding per OSD name, for the methods whose debt and
        # memory footprint are the same per-node byte count
        self._log_bytes: dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------ lifecycle
    def attach(self, osd: OSD) -> None:
        """Create per-OSD state (log pools etc.).  Default: none."""

    def flush(self) -> Generator:
        """Drain all logs so every stripe verifies.  Default: nothing to do."""
        yield self.ecfs.env.timeout_us(0)

    def log_debt_bytes(self, osd: OSD) -> int:
        """Outstanding log bytes on this OSD that recovery must merge first."""
        return self._log_bytes.get(osd.name, 0)

    def unsettled_stripes(self) -> set[tuple[int, int]]:
        """Stripes with updates applied to data but still pending on parity.

        At any instant such a stripe's blocks are NOT a consistent codeword,
        so reconstruction must wait it out (``RecoveryManager`` polls this
        before capturing decode sources).  The set is pending log/busy work
        (:meth:`_pending_unsettled`, which methods override) plus
        resync-marked rows that are currently repairable; a marked row
        whose host (or a data host) is down is excluded — it cannot settle
        until that host's rebuild, which must be allowed to proceed (a dead
        row is also no obstacle to decoding: reconstruction never selects
        it as a source)."""
        return self._pending_unsettled() | {
            (pbid.file_id, pbid.stripe)
            for pbid in self._parity_resync
            if self._resync_eligible(pbid)
        }

    def _pending_unsettled(self) -> set[tuple[int, int]]:
        """Stripes with deltas in logs/buffers or mid-application.  Methods
        whose logs hold deltas that data blocks already carry in place
        override this (and must union in :attr:`_busy_stripes`); unapplied
        log records (data not yet in place either) are harmless and must
        NOT be reported."""
        return set(self._busy_stripes)

    def block_unsettled(self, osd: OSD, block: BlockId) -> bool:
        """True when ``osd`` holds log/buffer content addressed to ``block``
        that an in-place copy of the block would miss — i.e. a migration off
        ``osd`` must flush first.  Methods whose logs defer the in-place
        data write (TSUE's DataLog) override this; methods that apply data
        in place (or resolve their logs through ``osd_hosting`` at flush
        time, like FL) are covered by :meth:`unsettled_stripes` already."""
        return False

    # ------------------------------------------------- migration (log move)
    # The rebalancer's settle-or-ship protocol: a block with a *small*
    # amount of pending log content on its source settles in place before
    # the move (recycle-before-move — the cheap path, driving the normal
    # arbitered recycle machinery); a block with more ships its live log
    # extents to the destination as part of the move, with the method's own
    # replay-dedup tokens preventing double-apply if the source later
    # recycles (or crash-replays) the same extents.  Methods that apply
    # data in place at update time need none of this — the defaults say so.

    def block_log_bytes(self, osd: OSD, block: BlockId) -> int:
        """Bytes of live log content on ``osd`` addressed to ``block`` that
        an in-place copy of the block would miss — the shippable complement
        of :meth:`block_unsettled`.  0 means the base bytes are the whole
        story and the move needs neither settle nor ship."""
        return 0

    def settle_block(self, osd: OSD, block: BlockId) -> Generator:
        """Process fragment: force ``osd``'s pending log content for
        ``block`` through the normal (arbitered) recycle machinery — the
        migration fast path.  Must terminate even under a floored governor
        and when ``osd`` dies mid-settle."""
        yield self.env.timeout_us(0)

    def collect_block_logs(self, src: OSD, block: BlockId) -> list:
        """Capture ``src``'s live log records addressed to ``block`` for
        shipping.  Called under the stripe freeze (after ``settle_stripe``),
        so the captured set is stable.  The records are opaque to the
        caller; only :meth:`apply_shipped_logs` interprets them."""
        return []

    def apply_shipped_logs(self, src: OSD, dst: OSD, block: BlockId, records: list) -> Generator:
        """Process fragment: apply records captured by
        :meth:`collect_block_logs` at ``dst`` (still under the freeze),
        charging the read at ``src``, the wire, and the writes at ``dst``.
        Marks the extents applied at the source so its own later recycle
        skips them.  Returns the number of log bytes shipped."""
        yield self.env.timeout_us(0)
        return 0

    def _resync_eligible(self, pbid: BlockId) -> bool:
        """A marked row is repairable iff its own host and every data host
        are reachable."""
        if self.ecfs.osd_hosting(pbid).failed:
            return False
        return not any(
            self.ecfs.osd_hosting(BlockId(pbid.file_id, pbid.stripe, i)).failed
            for i in range(self.ecfs.rs.k)
        )

    def _mark_parity_resync(self, pbid: BlockId) -> None:
        """Record that parity row ``pbid`` missed a delta."""
        self._parity_resync.add(pbid)

    def resync_pending(self) -> bool:
        """True if any marked parity row is currently repairable (drives
        the drain/settle loop — see :meth:`ECFS.drain`)."""
        return any(self._resync_eligible(pbid) for pbid in self._parity_resync)

    def resync_parity(self, priority: int = IOPriority.FOREGROUND) -> Generator:
        """Re-encode resync-marked parity rows from data.

        Each stripe is repaired under a freeze, after its pending deltas
        drained and with no update in flight, so nothing tears the data
        capture or races a concurrent delta application.  Rows that are not
        currently repairable stay marked for a later pass (or for their
        host's rebuild, whose re-encode makes the late repair a no-op)."""
        if not self._parity_resync:
            yield self.env.timeout_us(0)
            return
        ecfs = self.ecfs
        rs = ecfs.rs
        bs = ecfs.config.block_size
        by_stripe: dict[tuple[int, int], list[BlockId]] = {}
        for pbid in sorted(self._parity_resync):
            by_stripe.setdefault((pbid.file_id, pbid.stripe), []).append(pbid)
        for (file_id, stripe), rows in sorted(by_stripe.items()):
            rows = [p for p in rows if self._resync_eligible(p)]
            if not rows:
                continue  # a needed host is down; retried after its rebuild
            key = (file_id, stripe)
            if (
                key in self._pending_unsettled()
                or ecfs.inflight_updates(file_id, stripe)
                or ecfs.stripe_frozen(file_id, stripe)
            ):
                # not settleable right now (deltas still draining or the
                # stripe is locked) — stays marked, retried by the caller's
                # next flush+resync pass rather than blocking here
                continue
            ecfs.freeze_stripe(file_id, stripe)
            try:
                hosts = [
                    ecfs.osd_hosting(BlockId(file_id, stripe, i))
                    for i in range(rs.k)
                ]
                if any(h.failed for h in hosts):
                    continue  # failed while we waited; retried later
                data = []
                for i, osd in enumerate(hosts):
                    bid = BlockId(file_id, stripe, i)
                    yield from osd.io_block(
                        IOKind.READ, bid, 0, bs, priority, tag="parity-resync"
                    )
                    data.append(osd.store.read(bid))
                yield self.env.timeout_us(self.costs.gf_mul(bs * rs.k, terms=rs.m))
                parity = rs.encode(data)
                for pbid in rows:
                    posd = ecfs.osd_hosting(pbid)
                    if posd.failed:
                        continue  # died while we read; stays marked
                    yield from ecfs.net.transfer(hosts[0].name, posd.name, bs)
                    yield from posd.io_block(
                        IOKind.WRITE, pbid, 0, bs, priority,
                        overwrite=True, tag="parity-resync",
                    )
                    posd.store.put(pbid, parity[pbid.idx - rs.k])
                    self._parity_resync.discard(pbid)
            finally:
                ecfs.thaw_stripe(file_id, stripe)

    @contextmanager
    def _applying(self, stripes: set[tuple[int, int]]) -> Iterator[None]:
        """Mark log content popped for ``stripes`` as mid-application: there
        must be no instant where a delta is neither in a visible log nor
        busy, or a concurrent reconstruction could capture a torn stripe.
        Enter in the same step as the pop (no yield in between); the marks
        drop when the last delta landed or the recycle gave up — also by
        exception, so a node death mid-recycle leaves no stripe busy."""
        for key in stripes:
            self._busy_stripes.incr(key)
        try:
            yield
        finally:
            for key in stripes:
                self._busy_stripes.decr(key)

    # ------------------------------------------------- per-OSD flush fan-out
    def _hosted(
        self, keys: Iterable, block_of: Callable = lambda key: key
    ) -> dict[str, list]:
        """Log keys grouped by the name of the OSD hosting their block NOW.
        A log keyed by block travels with the block across placement epochs
        and re-homes, so flush, ``recovery_prepare`` and ``on_node_failed``
        all select by current host, never by the host at append time."""
        per_osd: dict[str, list] = {}
        for key in keys:
            host = self.ecfs.osd_hosting(block_of(key))
            per_osd.setdefault(host.name, []).append(key)
        return per_osd

    def _flush_per_osd(self, per_osd: dict, job: Callable, *args) -> Generator:
        """Run ``job(osd, per_osd[osd.name], *args)`` as one process per live
        OSD with work, and wait for all of them.  A dead OSD gets none: what
        it logged was dropped or stashed by ``on_node_failed``, and nothing
        lands there afterwards (:meth:`OSD.check_alive`)."""
        jobs = [
            self.env.process(
                job(osd, per_osd[osd.name], *args),
                name=f"{self.name}-flush-{osd.name}",
            )
            for osd in self.ecfs.osds
            if not osd.failed and per_osd.get(osd.name)
        ]
        if jobs:
            yield self.env.all_of(jobs)
        else:
            yield self.env.timeout_us(0)

    # ----------------------------------------------------- recovery hooks
    def quiesce_node(self, victim: OSD) -> Generator:
        """Wait for in-flight background work on ``victim`` before it fails."""
        yield self.ecfs.env.timeout_us(0)

    def on_node_failed(self, victim: OSD) -> None:
        """Adjust log state when ``victim`` dies.

        Default: nothing.  Methods whose logs live with the blocks they
        describe drop the victim's entries (the rebuilt blocks are re-encoded
        from up-to-date data, so those deltas are subsumed); TSUE instead
        stashes the victim's DataLog/DeltaLog content for replica replay.
        """

    def on_node_joined(self, osd: OSD) -> None:
        """A brand-new node joined the cluster (elastic growth): create its
        per-OSD state, as at cluster build."""
        self.attach(osd)

    def on_node_restarted(self, osd: OSD) -> None:
        """A transiently-down node came back with its contents intact (no
        rebuild happened).  Methods with background machinery resume it and
        replay anything they buffered for the node while it was down; the
        default repairs parity rows that missed deltas during the outage."""
        if self._parity_resync:
            self.ecfs.env.process(
                self.resync_parity(IOPriority.BACKGROUND),
                name=f"resync-{osd.name}",
            )

    def pre_rebuild(self) -> Generator:
        """Work required after survivor log settlement but before decode
        (e.g. replaying the victim's replicated logs).  The default repairs
        parity rows that lost deltas, so decode sources are consistent."""
        yield from self.resync_parity()

    def post_rebuild(self, block: BlockId, target: OSD, rebuilt: np.ndarray) -> Generator:
        """Apply any stashed updates for a freshly decoded block."""
        yield self.ecfs.env.timeout_us(0)

    def finalize_recovery(self) -> Generator:
        """Drain whatever the replay produced."""
        yield self.ecfs.env.timeout_us(0)

    def degraded_overlay(
        self, block: BlockId, offset: int, size: int, buf: np.ndarray
    ) -> Generator:
        """Overlay updates that were acked but not yet merged into ``block``
        when its node died (consulted by degraded reads).  Methods that
        update data blocks in place have nothing logged for data blocks;
        TSUE overrides this to read the replica DataLog."""
        yield self.ecfs.env.timeout_us(0)
        return buf

    def memory_bytes(self, osd: OSD) -> int:
        """Method memory footprint on this OSD (log buffers + indexes)."""
        return self._log_bytes.get(osd.name, 0)

    # ------------------------------------------------------------- handlers
    def handle_update(self, osd: OSD, op: UpdateOp) -> Generator:
        raise NotImplementedError

    def handle_read(
        self, osd: OSD, block: BlockId, offset: int, size: int
    ) -> Generator:
        """Default read path: the in-place data block."""
        yield from osd.io_block(IOKind.READ, block, offset, size)
        return osd.store.read(block, offset, size)

    # ------------------------------------------------------ shared plumbing
    @property
    def env(self):
        return self.ecfs.env

    @property
    def costs(self):
        return self.ecfs.config.costs

    def data_rmw(
        self, osd: OSD, op: UpdateOp, priority: int = IOPriority.FOREGROUND
    ) -> Generator:
        """In-place data update: read old, write new; returns the data delta.

        This is the 'time-consuming write-after-read process' of §2.3.1 that
        TSUE removes from the critical path.  Holds the block lock so
        concurrent updates to one block serialize (no lost deltas).
        """
        with osd.block_lock(op.block).request() as lock:
            yield lock
            yield from osd.io_block(IOKind.READ, op.block, op.offset, op.size, priority)
            # Zero-copy capture: the XOR below materializes the delta from a
            # read-only view *before* any further yield, so the snapshot is
            # taken at the read instant without an ndarray.copy().
            delta = osd.store.read_view(op.block, op.offset, op.size) ^ op.payload
            yield self.env.timeout_us(self.costs.xor(op.size))
            yield from osd.io_block(
                IOKind.WRITE, op.block, op.offset, op.size, priority, overwrite=True
            )
            osd.store.write(op.block, op.offset, op.payload)
            self.ecfs.oracle.apply(op.block, op.offset, op.payload)
        return delta

    def parity_rmw(
        self,
        posd: OSD,
        pblock: BlockId,
        offset: int,
        pdelta: np.ndarray,
        priority: int = IOPriority.FOREGROUND,
        tag: str = "",
        frozen_ok: bool = False,
    ) -> Generator:
        """Read-XOR-write a parity range in place at the parity OSD.

        ``frozen_ok`` is for reconstruction-internal replays (post_rebuild)
        that run while their own stripe is frozen."""
        if not frozen_ok and self.ecfs.stripe_frozen(pblock.file_id, pblock.stripe):
            # reconstruction may hold the stripe frozen (capture -> re-home)
            yield from self.ecfs.wait_stripe_thaw(pblock.file_id, pblock.stripe)
        size = int(pdelta.shape[0])
        yield from posd.io_block(IOKind.READ, pblock, offset, size, priority, tag=tag)
        yield self.env.timeout_us(self.costs.xor(size))
        yield from posd.io_block(
            IOKind.WRITE, pblock, offset, size, priority, overwrite=True, tag=tag
        )
        posd.store.xor_in(pblock, offset, pdelta)

    def deliver_parity(
        self, src: OSD, posd: OSD, pbid: BlockId, offset: int, pdelta: np.ndarray,
        priority: int, **rmw,
    ) -> Generator:
        """Ship a recycled parity delta ``src`` -> ``posd`` and apply it in
        place (``rmw`` as for :meth:`parity_rmw`).  The delta already left
        its log, so when ``posd`` dies before the write lands (after the
        caller's liveness check) the row is marked for resync instead;
        returns whether the delta landed."""
        try:
            yield from self.forward(src, posd, int(pdelta.shape[0]))
            yield from self.parity_rmw(posd, pbid, offset, pdelta, priority, **rmw)
        except IntegrityError:
            self._mark_parity_resync(pbid)
            return False
        return True

    def forward(self, src: OSD, dst: OSD, nbytes: int) -> Generator:
        """One-way OSD-to-OSD transfer (payload + header)."""
        yield from self.ecfs.net.transfer(
            src.name, dst.name, nbytes + self.ecfs.config.header_bytes
        )

    # ---------------------------------------------------------- EC geometry
    def parity_targets(self, block: BlockId) -> list[tuple[int, OSD, BlockId]]:
        """[(parity row j, hosting OSD, parity BlockId)] for ``block``'s stripe."""
        ecfs = self.ecfs
        out = []
        for j in range(ecfs.rs.m):
            pbid = BlockId(block.file_id, block.stripe, ecfs.rs.k + j)
            out.append((j, ecfs.osd_hosting(pbid), pbid))
        return out

    def parity_coef(self, j: int, data_idx: int) -> int:
        """Coding coefficient a_{j, data_idx} of Eq. (2)."""
        return int(self.ecfs.rs.coding[j, data_idx])
