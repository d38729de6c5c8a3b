"""PLR — Parity Logging with Reserved space (Chan et al., FAST '14; §2.2).

Like PL, but each parity block has a *reserved log area adjacent to it* on
disk.  That kills the random reads of PL's recycle (deltas sit next to the
parity), at two costs the paper highlights:

* appends target many per-block reserved areas scattered over the device,
  so the append stream itself becomes random writes;
* when a block's reserved area fills, recycling runs **inline in the update
  path** (the updating request waits for it), throttling throughput.

Both effects are reproduced here, which is why PLR lands at the bottom of
Fig. 5 on SSDs.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Generator

import numpy as np

from repro.cluster.client import UpdateOp
from repro.cluster.ids import BlockId
from repro.cluster.osd import OSD
from repro.common.errors import IntegrityError
from repro.ec.incremental import parity_delta
from repro.sim import spawn_fanout
from repro.storage.base import IOKind, IOPriority
from repro.update.base import UpdateMethod

__all__ = ["ParityLoggingReserved"]

#: each parity block's reserved log space, as a share of the block size
RESERVED_FRACTION = 0.03125


class ParityLoggingReserved(UpdateMethod):
    name = "plr"

    def __init__(self, ecfs) -> None:
        super().__init__(ecfs)
        self.reserved_size = max(4096, int(ecfs.config.block_size * RESERVED_FRACTION))
        # per parity block: pending (offset, pdelta) + reserved bytes used
        self._pending: dict[BlockId, list[tuple[int, np.ndarray]]] = defaultdict(list)
        self._used: dict[BlockId, int] = defaultdict(int)

    def handle_update(self, osd: OSD, op: UpdateOp) -> Generator:
        delta = yield from self.data_rmw(osd, op)
        yield spawn_fanout(
            self.env,
            [
                self._append_reserved(osd, posd, pbid, op, delta, j)
                for j, posd, pbid in self.parity_targets(op.block)
            ],
        )

    def _append_reserved(self, osd: OSD, posd: OSD, pbid, op: UpdateOp, delta, j) -> Generator:
        yield self.env.timeout_us(self.costs.gf_mul(op.size))
        pdelta = parity_delta(self.parity_coef(j, op.block.idx), delta)
        yield from self.forward(osd, posd, op.size)
        try:
            if self._used[pbid] + op.size > self.reserved_size:
                # reserved area full: inline recycle, charged to this update
                yield from self._recycle_block(posd, pbid, IOPriority.FOREGROUND)
            # append lands adjacent to *this* parity block — a per-block
            # stream, so interleaved appends to different blocks are random
            # on the device
            addr = posd.block_addr(pbid) + posd.block_size + self._used[pbid]
            # reserved space is preallocated next to the parity block, so
            # every append rewrites live device space — the paper counts
            # these in the write penalty (PLR's OVERWRITE count exceeds
            # FO's in Table 1)
            yield from posd.io_at(
                IOKind.WRITE, addr, op.size, stream="plr-reserved",
                overwrite=True, tag="plr-append",
            )
            posd.check_alive()  # died with the append in flight: not logged
        except IntegrityError:
            # the parity node died with the data already committed in
            # place: the stripe resyncs once the node restarts or rebuilds
            self._mark_parity_resync(pbid)
            raise
        self._pending[pbid].append((op.offset, pdelta))
        self._used[pbid] += op.size

    def _recycle_block(self, posd: OSD, pbid: BlockId, priority: int) -> Generator:
        """Merge a block's reserved deltas into the parity block.

        One sequential read covers parity block + adjacent reserved area
        (PLR's advantage over PL), then one overwrite of the parity block.
        """
        # reconstruction may hold the stripe frozen (capture -> re-home)
        yield from self.ecfs.wait_stripe_thaw(pbid.file_id, pbid.stripe)
        # the reserved area is adjacent to the parity block, so its content
        # travels with the block across placement epochs: recycle against
        # the CURRENT host, not whichever node the caller resolved earlier
        # (an inline recycle may have waited out a re-home just above)
        posd = self.ecfs.osd_hosting(pbid)
        entries = self._pending.pop(pbid, [])
        used = self._used.pop(pbid, 0)
        if not entries:
            return
        with self._applying({(pbid.file_id, pbid.stripe)}):
            try:
                base = posd.block_addr(pbid)
                yield from posd.io_at(
                    IOKind.READ,
                    base,
                    posd.block_size + used,
                    stream="plr-recycle",
                    priority=priority,
                    tag="plr-recycle",
                )
                total = sum(int(d.shape[0]) for _o, d in entries)
                yield self.env.timeout_us(self.costs.xor(total))
                for offset, pdelta in entries:
                    posd.store.xor_in(pbid, offset, pdelta)
                yield from posd.io_at(
                    IOKind.WRITE,
                    base,
                    posd.block_size,
                    stream="plr-recycle",
                    priority=priority,
                    overwrite=True,
                    tag="plr-recycle",
                )
            except IntegrityError:
                # the node died mid-recycle with the reserved-area entries
                # already popped: the row resyncs on restart / its rebuild
                self._mark_parity_resync(pbid)

    # ------------------------------------------------------------- drain
    def flush(self) -> Generator:
        yield from self._flush_per_osd(
            self._hosted(self._pending), self._flush_osd, IOPriority.BACKGROUND
        )

    def _flush_osd(self, osd: OSD, blocks: list[BlockId], priority: int) -> Generator:
        for pbid in blocks:
            yield from self._recycle_block(osd, pbid, priority)

    def log_debt_bytes(self, osd: OSD) -> int:
        """Reserved bytes in use next to the parity blocks ``osd`` hosts now.
        The deltas live on disk in the reserved areas, so the base class's
        ``memory_bytes`` of 0 stands."""
        return sum(
            used
            for pbid, used in self._used.items()
            if self.ecfs.osd_hosting(pbid).name == osd.name
        )

    def _pending_unsettled(self) -> set[tuple[int, int]]:
        """Reserved-space deltas correspond to data already in place."""
        out = set(self._busy_stripes)
        for pbid, entries in self._pending.items():
            if entries:
                out.add((pbid.file_id, pbid.stripe))
        return out

    def on_node_failed(self, victim: OSD) -> None:
        # reserved-space deltas are colocated with their parity block and
        # die with it; re-encoded rebuilds subsume them
        for pbid in self._hosted(self._pending).get(victim.name, ()):
            self._pending.pop(pbid, None)
            self._used.pop(pbid, None)

    def recovery_prepare(self, posd: OSD) -> Generator:
        mine = self._hosted(self._pending).get(posd.name, [])
        yield from self._flush_osd(posd, mine, IOPriority.FOREGROUND)
