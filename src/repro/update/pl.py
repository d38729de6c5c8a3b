"""PL — Parity Logging (Stodolsky et al., ISCA '93; §2.2).

Data blocks update in place (write-after-read to get the delta); the parity
delta for each parity block is appended to that parity OSD's *parity log*
(a large sequential log).  Log recycling is deferred: a node's log is
replayed only at flush, as one grant of the unified maintenance scheduler's
``recycle`` stream, and in the foreground at recovery preparation — so PL's
foreground is fast but it carries the largest log debt into recovery.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Generator

import numpy as np

from repro.background.work import RecycleOp
from repro.cluster.client import UpdateOp
from repro.cluster.ids import BlockId
from repro.cluster.osd import OSD
from repro.common.errors import IntegrityError
from repro.ec.incremental import parity_delta
from repro.sim import spawn_fanout
from repro.storage.base import IOKind, IOPriority
from repro.update.base import UpdateMethod

__all__ = ["ParityLogging"]


class ParityLogging(UpdateMethod):
    name = "pl"

    def __init__(self, ecfs) -> None:
        super().__init__(ecfs)
        # per-OSD: list of (parity BlockId, offset, pdelta) in arrival order
        self._logs: dict[str, list[tuple[BlockId, int, np.ndarray]]] = defaultdict(list)

    def handle_update(self, osd: OSD, op: UpdateOp) -> Generator:
        delta = yield from self.data_rmw(osd, op)
        yield spawn_fanout(
            self.env,
            [
                self._log_parity(osd, posd, pbid, op, delta, j)
                for j, posd, pbid in self.parity_targets(op.block)
            ],
        )

    def _log_parity(self, osd: OSD, posd: OSD, pbid, op: UpdateOp, delta, j) -> Generator:
        yield self.env.timeout_us(self.costs.gf_mul(op.size))
        pdelta = parity_delta(self.parity_coef(j, op.block.idx), delta)
        yield from self.forward(osd, posd, op.size)
        try:
            # sequential append into the node-wide parity log
            yield from posd.io_log_append("paritylog", op.size, tag="pl-append")
            posd.check_alive()  # died with the append in flight: not logged
        except IntegrityError:
            # the parity node died with the data already committed in
            # place: the stripe resyncs once the node restarts or rebuilds
            self._mark_parity_resync(pbid)
            raise
        self._logs[posd.name].append((pbid, op.offset, pdelta))
        self._log_bytes[posd.name] += op.size

    # ------------------------------------------------------------- recycle
    def flush(self) -> Generator:
        # the log is node-wide and stays with the node that took the append
        yield from self._flush_per_osd(
            self._logs, lambda osd, _log: self._recycle_node(osd)
        )

    def _recycle_node(
        self, posd: OSD, priority: int = IOPriority.BACKGROUND
    ) -> Generator:
        """Replay this node's whole parity log (flush / recovery
        preparation): read deltas back, RMW parity blocks."""
        if not self._logs.get(posd.name):
            return
        entries = self._logs.pop(posd.name)
        self._log_bytes[posd.name] = 0
        stripes = {(pbid.file_id, pbid.stripe) for pbid, _o, _d in entries}
        # busy-mark BEFORE the arbiter grant: while the grant is pending the
        # popped deltas are in neither the visible log nor the blocks, and a
        # concurrent reconstruction must not capture that torn state
        with self._applying(stripes):
            # unified maintenance plane: the whole replay is one recycle
            # grant — but only when recycling AS background work.  A
            # FOREGROUND drain (recovery_prepare's pre-rebuild settlement)
            # must not queue behind governed background pacing: that would
            # stretch the reduced-redundancy exposure window the repair
            # stream's heavy weight exists to minimize.
            if priority >= IOPriority.BACKGROUND:
                yield from self.ecfs.background.request(
                    RecycleOp(
                        osd=posd.name,
                        nbytes=sum(int(d.shape[0]) for _p, _o, d in entries),
                        tag="paritylog",
                    )
                )
            # PL's recycle is random-read-heavy: the log is read back and
            # every entry is applied individually (no locality merging).
            for pbid, offset, pdelta in entries:
                try:
                    yield from posd.io_at(
                        IOKind.READ,
                        addr=(hash((pbid, offset)) & 0xFFFFFFFF),
                        size=int(pdelta.shape[0]),
                        stream="paritylog-read",
                        priority=priority,
                        tag="pl-recycle",
                    )
                    # the log entry may predate a placement-epoch re-home:
                    # the log (and its read) stays with ``posd``, but the
                    # delta must land on the parity block's CURRENT host
                    target = self.ecfs.osd_hosting(pbid)
                    if target is not posd:
                        yield from self.forward(posd, target, int(pdelta.shape[0]))
                    yield from self.parity_rmw(
                        target, pbid, offset, pdelta, priority, tag="pl-recycle"
                    )
                except IntegrityError:
                    # the node died mid-recycle with the entries already
                    # popped: the row resyncs on restart / its rebuild
                    self._mark_parity_resync(pbid)

    def _pending_unsettled(self) -> set[tuple[int, int]]:
        """Logged parity deltas correspond to data already updated in place."""
        out = set(self._busy_stripes)
        for entries in self._logs.values():
            for pbid, _offset, _pdelta in entries:
                out.add((pbid.file_id, pbid.stripe))
        return out

    def on_node_failed(self, victim: OSD) -> None:
        """The victim's parity log dies with its parity blocks; the data
        blocks already hold every update (in-place), so re-encoded rebuilds
        subsume the lost deltas."""
        self._logs.pop(victim.name, None)
        self._log_bytes[victim.name] = 0

    def recovery_prepare(self, posd: OSD) -> Generator:
        """Merge this node's pending parity log before its blocks are used."""
        yield from self._recycle_node(posd, IOPriority.FOREGROUND)
