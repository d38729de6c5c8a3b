"""PARIX — speculative partial writes (Li et al., ATC '17; §2.2).

PARIX skips the write-after-read delta computation: the data OSD overwrites
in place and forwards the *new data* to the parity logs.  The parity delta
``a_ij (D_n - D_0)`` only needs the original value ``D_0`` once, so on the
**first** update of an address the data OSD must additionally read the old
bytes and ship them — the extra serial round trip that costs PARIX "2x
network latency" for updates without temporal locality.

The parity-side log keeps, per (parity block, source data block):

* a *first-wins* extent map of original bytes ``D_0`` (each byte's D0 is
  captured by the ship triggered at that byte's first update), and
* a *latest-wins* extent map of new bytes ``D_n``.

Recycling then applies ``a_ij (D_n ^ D_0)`` per extent — Eq. (4)'s
temporal-locality collapse, which is exactly PARIX's selling point.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Generator

import numpy as np

from repro.cluster.client import UpdateOp
from repro.cluster.ids import BlockId
from repro.cluster.osd import OSD, scattered_addr
from repro.common.errors import IntegrityError
from repro.core.intervals import ExtentMap, MergePolicy
from repro.ec.incremental import parity_delta
from repro.sim.batch import spawn_fanout
from repro.storage.base import IOKind, IOPriority
from repro.update.base import UpdateMethod

__all__ = ["PARIX"]

_PBID = itemgetter(0)  # pair logs are keyed (parity block, data idx)


class _PairLog:
    """Old/new extent maps + raw-entry accounting for one (pbid, didx)."""

    __slots__ = ("old", "new", "raw_entries", "raw_bytes")

    def __init__(self) -> None:
        self.old = ExtentMap(MergePolicy.OVERWRITE)
        self.new = ExtentMap(MergePolicy.OVERWRITE)
        self.raw_entries = 0
        self.raw_bytes = 0

    def log_old(self, offset: int, data: np.ndarray) -> None:
        """First-wins: only the not-yet-covered sub-ranges record D0."""
        for gap_off, gap_size in self.old.uncovered(offset, int(data.shape[0])):
            rel = gap_off - offset
            self.old.insert(gap_off, data[rel : rel + gap_size])
        self.raw_entries += 1
        self.raw_bytes += int(data.shape[0])

    def log_new(self, offset: int, data: np.ndarray) -> None:
        self.new.insert(offset, data)
        self.raw_entries += 1
        self.raw_bytes += int(data.shape[0])


class PARIX(UpdateMethod):
    name = "parix"

    def __init__(self, ecfs) -> None:
        super().__init__(ecfs)
        # data-OSD side: ranges of each block whose D0 already shipped
        self._seen: dict[BlockId, ExtentMap] = {}
        # parity-OSD side: (pbid, data idx) -> pair log
        self._logs: dict[tuple[BlockId, int], _PairLog] = {}

    def handle_update(self, osd: OSD, op: UpdateOp) -> Generator:
        targets = self.parity_targets(op.block)
        # Front end is serialized per block so the parity logs' old/new state
        # commits in the same order as the in-place writes.
        with osd.block_lock(op.block).request() as lock:
            yield lock
            live = None
            if self._unseen_ranges(op.block, op.offset, op.size):
                # PARIX must capture D0 once per address: read the original
                # bytes before the speculative overwrite.
                yield from osd.io_block(IOKind.READ, op.block, op.offset, op.size)
                live = osd.store.read(op.block, op.offset, op.size)
            # speculative in-place write of the new data (no read needed)
            yield from osd.io_block(
                IOKind.WRITE, op.block, op.offset, op.size, overwrite=True
            )
            # --- single synchronous commit: the store write, the oracle,
            # and ALL pair-log mutations happen with no yield in between.
            # A concurrent recycle popping a pair log must never split one
            # update's old/new across two log generations — the orphaned
            # half would silently lose the update's parity delta.
            if live is None and self._unseen_ranges(op.block, op.offset, op.size):
                # a recycle popped the pair log (clearing the D0 marks)
                # while our write was in flight: the fresh log generation
                # needs baselines after all, and the pre-write bytes are
                # still in the store right now
                live = osd.store.read(op.block, op.offset, op.size)
            osd.store.write(op.block, op.offset, op.payload)
            self.ecfs.oracle.apply(op.block, op.offset, op.payload)
            if live is not None and not any(
                posd.failed for _j, posd, _p in targets
            ):
                # mark D0 captured only when EVERY parity target got it;
                # with a target down, the next update re-captures and
                # re-ships (log_old is first-wins, and the recovered
                # target's fresh baseline is exactly its re-encoded
                # parity's view of the data)
                self._mark_seen(op.block, op.offset, op.size)
            for _j, posd, pbid in targets:
                if posd.failed:
                    # this parity row misses the update: resynced when the
                    # node restarts, or re-encoded by its rebuild
                    self._mark_parity_resync(pbid)
                    continue
                log = self._logs.setdefault((pbid, op.block.idx), _PairLog())
                if live is not None:
                    log.log_old(op.offset, live)
                    self._log_bytes[posd.name] += op.size
                log.log_new(op.offset, op.payload)
                self._log_bytes[posd.name] += op.size

        # Wire + log-append charges.  The new data ships first; the parity
        # node probes its speculation log to decide whether it already holds
        # D0.  When it does not, it NACKs and the old data follows — the
        # serial "2x network latency" penalty of Fig. 1.
        live_targets = [posd for _j, posd, _pbid in targets if not posd.failed]
        yield spawn_fanout(
            self.env, [self._ship(osd, posd, op.size) for posd in live_targets]
        )
        if live is not None:
            # NACK comes back before the data node can ship the old bytes
            yield spawn_fanout(
                self.env, [self.forward(posd, osd, 0) for posd in live_targets]
            )
            yield spawn_fanout(
                self.env, [self._ship(osd, posd, op.size) for posd in live_targets]
            )

    def _ship(self, osd: OSD, posd: OSD, size: int) -> Generator:
        yield from self.forward(osd, posd, size)
        yield from posd.io_log_append("parixlog", size, tag="parix-append")
        # The speculation log needs a durable per-entry index record (how
        # else would recovery find which addresses hold D0?): one small
        # random index-page write per append.  This is what keeps PARIX
        # device-bound despite skipping the data-side read.
        yield from posd.io_at(
            IOKind.WRITE,
            addr=scattered_addr(f"parix-index:{posd.name}:{size}"),
            size=4096,
            stream="parixlog-index",
            overwrite=True,
            tag="parix-index",
        )

    # --------------------------------------------------------------- helpers
    def _unseen_ranges(self, block: BlockId, offset: int, size: int) -> list:
        emap = self._seen.get(block)
        if emap is None:
            return [(offset, size)]
        return emap.uncovered(offset, size)

    def _mark_seen(self, block: BlockId, offset: int, size: int) -> None:
        emap = self._seen.get(block)
        if emap is None:
            emap = self._seen[block] = ExtentMap(MergePolicy.OVERWRITE)
        emap.insert(offset, np.zeros(size, dtype=np.uint8), own=True)

    # ------------------------------------------------------------- recycle
    def flush(self) -> Generator:
        # a failed OSD's pair logs were dropped at failure; its rows are
        # re-encoded by the rebuild
        yield from self._flush_per_osd(
            self._hosted(self._logs, _PBID), self._recycle_osd, IOPriority.BACKGROUND
        )

    def _recycle_osd(
        self, posd: OSD, keys: list[tuple[BlockId, int]], priority: int
    ) -> Generator:
        for key in keys:
            log = self._logs.pop(key, None)
            if log is None:
                continue
            pbid, didx = key
            # drop the D0-seen marker atomically with the pop: an update
            # arriving while this recycle is mid-flight must re-capture D0
            # into the fresh pair log, or its delta would be computed
            # against a baseline the parity never had
            self._seen.pop(BlockId(pbid.file_id, pbid.stripe, didx), None)
            with self._applying({(pbid.file_id, pbid.stripe)}):
                try:
                    yield from self._apply_pair_log(posd, pbid, didx, log, priority)
                except IntegrityError:
                    # the node died mid-recycle with the pair log already
                    # popped: the row resyncs on restart / its rebuild
                    self._mark_parity_resync(pbid)
        self._log_bytes[posd.name] = 0

    def _apply_pair_log(
        self, posd: OSD, pbid: BlockId, didx: int, log: _PairLog, priority: int
    ) -> Generator:
        j = pbid.idx - self.ecfs.rs.k
        # read the raw (unmerged) log back from disk: one read per entry
        for _ in range(log.raw_entries):
            yield from posd.io_at(
                IOKind.READ,
                addr=hash((pbid, didx)) & 0xFFFFFFFF,
                size=max(1, log.raw_bytes // max(1, log.raw_entries)),
                stream="parixlog-read",
                priority=priority,
                tag="parix-recycle",
            )
        for ext in log.new.extents():
            old = log.old.read_range(ext.start, ext.size)
            if old is None:
                raise RuntimeError(
                    "PARIX invariant violated: updated byte missing D0"
                )
            yield self.env.timeout_us(self.costs.gf_mul(ext.size))
            pdelta = parity_delta(self.parity_coef(j, didx), ext.data ^ old)
            yield from self.parity_rmw(
                posd, pbid, ext.start, pdelta, priority, tag="parix-recycle"
            )
        # the recycled pair log loses its D0 baselines: the data OSD must
        # ship fresh baselines on the next update of that data block

    def _pending_unsettled(self) -> set[tuple[int, int]]:
        """Speculation-logged pairs describe in-place data the parity blocks
        have not absorbed yet."""
        out = set(self._busy_stripes)
        for (pbid, _didx), log in self._logs.items():
            if log.raw_entries:
                out.add((pbid.file_id, pbid.stripe))
        return out

    def on_node_failed(self, victim: OSD) -> None:
        """The victim's speculation logs die with its parity blocks; data
        blocks are updated in place, so re-encoded rebuilds subsume them."""
        for key in self._hosted(self._logs, _PBID).get(victim.name, ()):
            pbid, didx = key
            del self._logs[key]
            self._seen.pop(BlockId(pbid.file_id, pbid.stripe, didx), None)
        self._log_bytes[victim.name] = 0

    def recovery_prepare(self, posd: OSD) -> Generator:
        mine = self._hosted(self._logs, _PBID).get(posd.name, [])
        yield from self._recycle_osd(posd, mine, IOPriority.FOREGROUND)
