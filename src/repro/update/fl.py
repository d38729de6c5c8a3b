"""FL — Full Logging (Azure/GFS style; §2.2).

Every update is appended to logs — new data at the data OSD and at every
parity OSD — with no in-place work in the foreground at all.  The costs the
paper calls out are reproduced:

* a **single** unbounded log per node, so log recycling excludes appends and
  reads (modelled with a mutex resource per node);
* reads must merge the log with the base block (overlay on the read path);
* storage/network overhead of shipping full data to all m parity nodes.

FL is not in the paper's Fig. 5 line-up; it is provided for the Fig. 1
latency decomposition and for workload accounting comparisons.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.cluster.client import UpdateOp
from repro.cluster.ids import BlockId
from repro.cluster.osd import OSD, scattered_addr
from repro.common.errors import UnavailableError
from repro.core.intervals import ExtentMap, MergePolicy, overlay
from repro.ec.incremental import parity_delta
from repro.sim import Resource, spawn_fanout
from repro.storage.base import IOKind, IOPriority
from repro.update.base import UpdateMethod

__all__ = ["FullLogging"]


class FullLogging(UpdateMethod):
    name = "fl"

    def __init__(self, ecfs) -> None:
        super().__init__(ecfs)
        # data-OSD side: block -> latest-wins extent map of logged new data
        self._datalog: dict[BlockId, ExtentMap] = {}
        self._locks: dict[str, Resource] = {}
        # unmerged entries of a failed node, recovered from the parity-side
        # mirror logs and replayed onto the rebuilt blocks
        self._stash: dict[BlockId, list] = {}

    def attach(self, osd: OSD) -> None:
        self._locks[osd.name] = Resource(self.env, capacity=1)

    def handle_update(self, osd: OSD, op: UpdateOp) -> Generator:
        # single-log mutual exclusion: appends wait out any recycle
        with self._locks[osd.name].request() as lock:
            yield lock
            yield from osd.io_log_append("fulllog", op.size, tag="fl-append")
            osd.check_alive()  # died with the append in flight: not logged
            emap = self._datalog.setdefault(op.block, ExtentMap(MergePolicy.OVERWRITE))
            emap.insert(op.offset, op.payload, own=True)
            self._log_bytes[osd.name] += op.size
            self.ecfs.oracle.apply(op.block, op.offset, op.payload)
        # replicate the record to every parity OSD's log (fault tolerance)
        sends = [
            self._mirror(osd, posd, op)
            for _j, posd, _pbid in self.parity_targets(op.block)
            if not posd.failed
        ]
        if sends:
            yield spawn_fanout(self.env, sends)

    def _mirror(self, osd: OSD, posd: OSD, op: UpdateOp) -> Generator:
        yield from self.forward(osd, posd, op.size)
        yield from posd.io_log_append("fulllog-mirror", op.size, tag="fl-mirror")
        self._log_bytes[posd.name] += op.size

    # ----------------------------------------------------------------- read
    def handle_read(
        self, osd: OSD, block: BlockId, offset: int, size: int
    ) -> Generator:
        """Read-time merge: base block + logged overlay (FL's read penalty)."""
        emap = self._datalog.get(block)
        with self._locks[osd.name].request() as lock:
            yield lock
            yield from osd.io_block(IOKind.READ, block, offset, size)
            buf = osd.store.read(block, offset, size)
            if emap is not None:
                # extra random read of the log region holding the overlay
                yield from osd.io_at(
                    IOKind.READ,
                    addr=scattered_addr(f"fl:{block}"),
                    size=size,
                    stream="fulllog-read",
                    tag="fl-read-merge",
                )
                overlay(buf, offset, emap.extents())
        return buf

    # -------------------------------------------------------------- recycle
    def flush(self) -> Generator:
        # a failed OSD's entries were stashed at failure and are replayed
        # onto the rebuild
        yield from self._flush_per_osd(self._hosted(self._datalog), self._recycle_osd)
        # parity-side mirror logs are garbage once the primaries merged
        self._log_bytes.clear()

    def _recycle_osd(self, osd: OSD, blocks: list[BlockId]) -> Generator:
        with self._locks[osd.name].request() as lock:
            yield lock  # recycle excludes appends and reads
            for block in blocks:
                # pop only after a fully successful application: a crash
                # mid-apply must leave the entry for the stash/replay path
                # (re-application is idempotent — latest-wins data writes
                # and recomputed deltas collapse to zero)
                emap = self._datalog.get(block)
                if emap is None:
                    continue
                with self._applying({(block.file_id, block.stripe)}):
                    yield from self._apply_block_log(osd, block, emap)
                    self._datalog.pop(block, None)
            self._log_bytes[osd.name] = 0

    def _apply_block_log(self, osd: OSD, block: BlockId, emap: ExtentMap) -> Generator:
        for ext in emap.extents():
            # read old, write merged data in place, derive deltas
            yield from osd.io_block(
                IOKind.READ, block, ext.start, ext.size,
                IOPriority.BACKGROUND, tag="fl-recycle",
            )
            old = osd.store.read(block, ext.start, ext.size)
            yield self.env.timeout_us(self.costs.xor(ext.size))
            delta = old ^ ext.data
            yield from osd.io_block(
                IOKind.WRITE, block, ext.start, ext.size,
                IOPriority.BACKGROUND, overwrite=True, tag="fl-recycle",
            )
            osd.store.write(block, ext.start, ext.data)
            yield from self._update_parity(osd, block, ext.start, delta, "fl-recycle")

    def _update_parity(
        self, src: OSD, block: BlockId, offset: int, delta: np.ndarray,
        tag: str, frozen_ok: bool = False,
    ) -> Generator:
        """Bring every parity row of ``block``'s stripe up to date with a
        data delta computed at ``src``."""
        for j, posd, pbid in self.parity_targets(block):
            if posd.failed:
                # this parity row misses the delta: resynced when the
                # node restarts, or re-encoded by its rebuild
                self._mark_parity_resync(pbid)
                continue
            yield self.env.timeout_us(self.costs.gf_mul(int(delta.shape[0])))
            pdelta = parity_delta(self.parity_coef(j, block.idx), delta)
            # a host that dies between the liveness check above and the
            # write leaves the row resync-marked
            yield from self.deliver_parity(
                src, posd, pbid, offset, pdelta, IOPriority.BACKGROUND,
                tag=tag, frozen_ok=frozen_ok,
            )

    def on_node_failed(self, victim: OSD) -> None:
        # the victim's unmerged log entries survive in the parity-side
        # mirrors: stash them for replay onto the rebuilt blocks so no
        # acked update is lost
        for block in self._hosted(self._datalog).get(victim.name, ()):
            self._stash[block] = list(self._datalog.pop(block).extents())
        self._log_bytes[victim.name] = 0

    def post_rebuild(self, block: BlockId, target: OSD, rebuilt: np.ndarray) -> Generator:
        """Merge the victim's mirrored log entries onto a rebuilt block and
        bring the parity blocks up to date with the resulting deltas."""
        # do NOT pop yet: a mid-replay failure sends the rebuild worker back
        # for a retry, and the retry must find the stash intact (re-applying
        # onto a freshly decoded block is idempotent: old == new, delta 0)
        exts = self._stash.get(block)
        if not exts:
            yield self.env.timeout_us(0)
            return
        yield from self._read_mirror(block, sum(e.size for e in exts), "fl-replay")
        for ext in exts:
            old = rebuilt[ext.start : ext.end].copy()
            yield self.env.timeout_us(self.costs.xor(ext.size))
            rebuilt[ext.start : ext.end] = ext.data
            yield from self._update_parity(
                target, block, ext.start, old ^ ext.data, "fl-replay", frozen_ok=True
            )
        self._stash.pop(block, None)

    def degraded_overlay(
        self, block: BlockId, offset: int, size: int, buf: np.ndarray
    ) -> Generator:
        """Degraded reads consult the parity-side mirror of the dead node's
        log so acked-but-unmerged bytes are never served stale."""
        exts = self._stash.get(block)
        if not exts:
            yield self.env.timeout_us(0)
            return buf
        yield from self._read_mirror(block, size, "fl-degraded")
        return overlay(buf, offset, exts)

    def _read_mirror(self, block: BlockId, size: int, tag: str) -> Generator:
        """Charge one mirror-log read at a surviving parity OSD."""
        for _j, posd, _pbid in self.parity_targets(block):
            if not posd.failed:
                yield from posd.io_at(
                    IOKind.READ,
                    addr=scattered_addr(f"fl:{block}"),
                    size=max(1, size),
                    stream="fulllog-mirror-read",
                    tag=tag,
                )
                return
        yield self.env.timeout_us(0)

    def recovery_prepare(self, osd: OSD) -> Generator:
        mine = self._hosted(self._datalog).get(osd.name, [])
        try:
            yield from self._recycle_osd(osd, mine)
        except UnavailableError:
            # this host died mid-prepare: an entry is popped only after a
            # full application, so what is left belongs to the stash /
            # restart path, and the rebuild of the other victim goes on
            pass
