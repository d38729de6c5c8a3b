"""CoRD — Combining Raid and Delta (Zhou et al., SC '24; §2.2).

CoRD minimizes update *network traffic*: the data OSD computes the data
delta (write-after-read, like PL) but ships it only to a per-stripe
**collector** (the OSD hosting the stripe's first parity block).  The
collector aggregates deltas from multiple data blocks at the same stripe
position (Eq. 5) in a **fixed-size single buffer log**; when the buffer
fills, its contents are recycled: per-parity merged deltas are computed and
fanned out to the parity OSDs, which apply them in place.

The concurrency weakness the paper exploits is modelled faithfully: the
buffer log is single, so at most one recycle can be in flight per collector;
while one runs, the (fixed-size) buffer keeps absorbing appends, but if it
fills *again* before the recycle finishes, every append at that collector
stalls — "the recycling process becomes a bottleneck that limits update
performance".
"""

from __future__ import annotations

from collections import defaultdict
from typing import Generator

from repro.cluster.client import UpdateOp
from repro.cluster.ids import BlockId
from repro.cluster.osd import OSD
from repro.common.errors import IntegrityError
from repro.core.intervals import ExtentMap, MergePolicy
from repro.gf.field import gf_mul_scalar
from repro.sim import Event
from repro.storage.base import IOPriority
from repro.update.base import UpdateMethod

__all__ = ["CoRD"]

_Buffers = dict[tuple[int, int], dict[int, ExtentMap]]

#: CoRD's fixed collector buffer (fixed-size single log; its recycle
#: concurrency limit is the method's weakness)
BUFFER_SIZE = 512 * 1024


class CoRD(UpdateMethod):
    name = "cord"

    def __init__(self, ecfs) -> None:
        super().__init__(ecfs)
        # collector state, per collector OSD name
        # (``_log_bytes[name]`` is the fill level of that collector's buffer)
        self._buffers: dict[str, _Buffers] = defaultdict(dict)
        self._recycling: dict[str, bool] = defaultdict(bool)
        self._waiters: dict[str, list[Event]] = defaultdict(list)

    # ------------------------------------------------------------ front end
    def handle_update(self, osd: OSD, op: UpdateOp) -> Generator:
        delta = yield from self.data_rmw(osd, op)
        collector = self._collector_of(op.block)
        try:
            collector.check_alive()
            yield from self.forward(osd, collector, op.size)
            yield from self._collector_append(collector, op, delta)
        except IntegrityError:
            # the collector was down or died mid-append, so the delta
            # reached no parity row: the data block holds the update in
            # place and every row catches up via the degraded-stripe resync
            for _j, _posd, pbid in self.parity_targets(op.block):
                self._mark_parity_resync(pbid)

    def _collector_of(self, block: BlockId) -> OSD:
        pbid = BlockId(block.file_id, block.stripe, self.ecfs.rs.k)  # parity 0
        return self.ecfs.osd_hosting(pbid)

    def _collector_append(self, collector: OSD, op: UpdateOp, delta) -> Generator:
        name = collector.name
        while self._log_bytes[name] + op.size > BUFFER_SIZE:
            if not self._recycling[name]:
                self._start_recycle(collector)
            else:
                # single log: buffer full AND a recycle already in flight —
                # the append has nowhere to go (the paper's bottleneck)
                waiter = self.env.event()
                self._waiters[name].append(waiter)
                yield waiter
        yield from collector.io_log_append("cord-buffer", op.size, tag="cord-append")
        collector.check_alive()  # died with the append in flight: not buffered
        per_idx = self._buffers[name].setdefault(
            (op.block.file_id, op.block.stripe), {}
        )
        emap = per_idx.setdefault(op.block.idx, ExtentMap(MergePolicy.XOR))
        emap.insert(op.offset, delta, own=True)
        self._log_bytes[name] += op.size

    # -------------------------------------------------------------- recycle
    def _take_buffer(self, collector: OSD) -> _Buffers:
        """Snapshot + clear the collector's buffer."""
        snapshot = self._buffers[collector.name]
        self._buffers[collector.name] = {}
        self._log_bytes[collector.name] = 0
        return snapshot

    def _start_recycle(self, collector: OSD) -> None:
        """Recycle a snapshot of the buffer in the background."""
        name = collector.name
        self._recycling[name] = True
        self.env.process(
            self._recycle_job(collector, self._take_buffer(collector)),
            name=f"cord-recycle-{name}",
        )

    def _recycle_job(self, collector: OSD, snapshot: _Buffers) -> Generator:
        try:
            yield from self._apply_snapshot(collector, snapshot, IOPriority.BACKGROUND)
        finally:
            self._recycling[collector.name] = False
            for waiter in self._waiters[collector.name]:
                if not waiter.triggered:
                    waiter.succeed()
            self._waiters[collector.name].clear()
            # flush/recovery waiters sleep on settlement progress
            self.ecfs.notify_settlement()

    def _apply_snapshot(
        self, collector: OSD, snapshot: _Buffers, priority: int
    ) -> Generator:
        """Eq. (5) merge + fan-out + in-place parity application."""
        rs = self.ecfs.rs
        with self._applying(set(snapshot)):
            for (file_id, stripe), per_idx in snapshot.items():
                for j in range(rs.m):
                    pbid = BlockId(file_id, stripe, rs.k + j)
                    posd = self.ecfs.osd_hosting(pbid)
                    if posd.failed:
                        # this row misses the merged deltas: resynced when
                        # the node restarts, or re-encoded by its rebuild
                        self._mark_parity_resync(pbid)
                        continue
                    merged = ExtentMap(MergePolicy.XOR)
                    for didx, emap in per_idx.items():
                        coef = self.parity_coef(j, didx)
                        for ext in emap.extents():
                            yield self.env.timeout_us(self.costs.gf_mul(ext.size))
                            merged.insert(
                                ext.start, gf_mul_scalar(coef, ext.data), own=True
                            )
                    for ext in merged.extents():
                        landed = yield from self.deliver_parity(
                            collector, posd, pbid, ext.start, ext.data, priority,
                            tag="cord-recycle",
                        )
                        if not landed:
                            # the parity host died mid-apply; the snapshot
                            # was already popped, so the row is repaired by
                            # resync (restart) or its rebuild's re-encode
                            break

    # ---------------------------------------------------------------- drain
    def flush(self) -> Generator:
        # wait out in-flight recycles (event-based), then recycle the residue
        while any(self._recycling.values()):
            yield self.ecfs.settlement_event()
        # every buffer is taken now, before the first job runs
        residue = {
            osd.name: self._take_buffer(osd)
            for osd in self.ecfs.osds
            if self._log_bytes.get(osd.name)
        }
        yield from self._flush_per_osd(
            residue, self._apply_snapshot, IOPriority.BACKGROUND
        )

    def _pending_unsettled(self) -> set[tuple[int, int]]:
        """Collector-buffered deltas and in-flight recycle snapshots have
        parity lagging data (resync-marked stripes are handled by the
        base class)."""
        out: set[tuple[int, int]] = set(self._busy_stripes)
        for buffers in self._buffers.values():
            out.update(buffers.keys())
        return out

    def on_node_failed(self, victim: OSD) -> None:
        """CoRD's buffer log has no replica: deltas buffered at a failed
        collector are lost (the paper does not include CoRD in its recovery
        evaluation; its single unreplicated buffer is part of why).  The
        data blocks hold every acked update in place, so recovery re-syncs
        the affected stripes' surviving parity from data — an expensive full
        re-encode that is the price of the unreplicated buffer.  (If a
        second failure takes a data block of such a stripe before the
        resync, the lost range is genuinely unrecoverable and verification
        reports it.)"""
        snapshot = self._buffers.pop(victim.name, None)
        if snapshot:
            rs = self.ecfs.rs
            for file_id, stripe in snapshot.keys():
                for j in range(rs.m):
                    self._parity_resync.add(BlockId(file_id, stripe, rs.k + j))
        self._log_bytes[victim.name] = 0
        self._recycling[victim.name] = False

    def recovery_prepare(self, osd: OSD) -> Generator:
        while self._recycling.get(osd.name):
            yield self.ecfs.settlement_event()
        if self._log_bytes.get(osd.name):
            yield from self._apply_snapshot(
                osd, self._take_buffer(osd), IOPriority.FOREGROUND
            )
