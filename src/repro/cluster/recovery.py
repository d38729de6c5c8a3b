"""Node failure + data recovery (§4.2, Fig. 8b).

Recovery of a failed OSD proceeds as the paper requires:

1. **log settlement** — every surviving node's outstanding logs touching the
   affected stripes must be recycled before reconstruction (methods with a
   ``recovery_prepare`` hook pay that cost here; FO pays nothing, TSUE pays
   almost nothing thanks to real-time recycling, PL/PARIX pay a lot);
2. **reconstruction** — for every lost block, k surviving blocks of its
   stripe are read and shipped to a rebuild target, the block is decoded
   (real RS decode over the real bytes) and written out; the rebuilt block
   is re-homed so subsequent I/O finds it.

Recovery bandwidth = rebuilt bytes / elapsed simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from repro.background.work import RepairOp
from repro.cluster.ecfs import ECFS
from repro.cluster.ids import BlockId
from repro.sim import spawn_fanout
from repro.storage.base import IOKind, IOPriority

__all__ = ["RecoveryReport", "RecoveryManager"]

#: stripes a fail-and-recover rebuilds concurrently
PARALLEL_STRIPES = 4


@dataclass
class RecoveryReport:
    failed_osd: int
    blocks_rebuilt: int
    bytes_rebuilt: int
    prepare_seconds: float
    rebuild_seconds: float

    @property
    def bandwidth(self) -> float:
        """Rebuild throughput in bytes/second (the paper's MB/s metric
        includes log settlement in the elapsed time)."""
        total = self.prepare_seconds + self.rebuild_seconds
        return self.bytes_rebuilt / total if total > 0 else 0.0


class RecoveryManager:
    """Drives fail-and-rebuild for one cluster.

    When the unified background scheduler is enabled, every block rebuild
    first obtains a ``repair``-stream grant (the heaviest-weighted stream)
    and its source/target I/O runs in the BACKGROUND device lane, so a
    rebuild storm shares the maintenance budget instead of competing with
    client traffic at FOREGROUND priority.  With the scheduler disabled the
    historical behavior (ungoverned FOREGROUND fetches) is byte-identical.
    """

    def __init__(self, ecfs: ECFS) -> None:
        self.ecfs = ecfs

    @property
    def _io_priority(self) -> int:
        return (
            IOPriority.BACKGROUND
            if self.ecfs.background.enabled
            else IOPriority.FOREGROUND
        )

    # ------------------------------------------------------------------ API
    def lost_blocks(self, osd_idx: int) -> list[BlockId]:
        """Blocks whose *current* home (including recovery re-homes from an
        earlier failure) is ``osd_idx``."""
        ecfs = self.ecfs
        return sorted(
            b for b in ecfs.known_blocks
            if ecfs.placement.home_of(b) == osd_idx
        )

    def fail_and_recover(self, osd_idx: int) -> Generator:
        """Process: kill ``osd_idx``, settle logs, rebuild; returns report.

        A live victim is quiesced first.  :meth:`ECFS.crash_osd` then tells
        the method, so its stash holds the victim's unrecycled logs — a
        no-op for a victim already crashed, the teardown for a stopped one.
        """
        ecfs = self.ecfs
        env = ecfs.env
        victim = ecfs.osds[osd_idx]
        if not victim.failed:
            yield env.process(ecfs.method.quiesce_node(victim), name="rec-quiesce")
        ecfs.crash_osd(osd_idx)
        ecfs.mds.declare_failed(osd_idx)
        lost = self.lost_blocks(osd_idx)

        # --- phase 1: settle outstanding logs on survivors ---------------
        t0 = env.now
        prepare = getattr(ecfs.method, "recovery_prepare", None)
        if prepare is not None:
            legs = [prepare(osd) for osd in ecfs.osds if not osd.failed]
            if legs:
                yield spawn_fanout(env, legs)
        # replay the victim's replicated logs (TSUE) before decoding
        yield env.process(ecfs.method.pre_rebuild(), name="rec-prelude")
        t1 = env.now

        # --- phase 2: reconstruct lost blocks, PARALLEL_STRIPES at a time -
        queue = list(lost)
        yield spawn_fanout(
            env,
            [
                self._rebuild_worker(queue, osd_idx)
                for _ in range(PARALLEL_STRIPES)
            ],
        )
        yield env.process(ecfs.method.finalize_recovery(), name="rec-final")
        t2 = env.now

        return RecoveryReport(
            failed_osd=osd_idx,
            blocks_rebuilt=len(lost),
            bytes_rebuilt=len(lost) * ecfs.config.block_size,
            prepare_seconds=t1 - t0,
            rebuild_seconds=t2 - t1,
        )

    # ------------------------------------------------------------ internals
    def _rebuild_worker(self, queue: list[BlockId], failed_idx: int) -> Generator:
        from repro.common.errors import IntegrityError

        env = self.ecfs.env
        while queue:
            block = queue.pop()
            try:
                yield from self._rebuild_block(block, failed_idx)
            except IntegrityError:
                # a source or target died mid-rebuild (overlapping second
                # failure): retry with freshly selected survivors.  The
                # retry terminates — each attempt excludes every node
                # currently down, and decode raises DecodeError (fatal)
                # once fewer than k survive.
                queue.append(block)
                yield env.timeout_us(0)

    def _rebuild_block(self, block: BlockId, failed_idx: int) -> Generator:
        from repro.common.errors import IntegrityError

        ecfs = self.ecfs
        env = ecfs.env
        target = self._rebuild_target(block, failed_idx)
        sources = self._survivor_sources(block)
        # unified maintenance plane: one repair-stream grant per rebuilt
        # block (k source reads + one target write), charged to the rebuild
        # target's budget (no-op when disabled)
        yield from ecfs.background.request(
            RepairOp(
                osd=ecfs.osds[target].name,
                nbytes=(len(sources) + 1) * ecfs.config.block_size,
                tag="rebuild",
            )
        )
        yield spawn_fanout(
            env, [self._fetch(src_bid, target) for src_bid in sources]
        )
        # Wait for stripe quiescence: while an update is in flight, or a
        # delta sits applied-in-data but pending-on-parity (log debt of an
        # ongoing workload, an overlapping recovery's settlement), the
        # stripe's blocks are not one consistent codeword and decoding
        # would produce garbage.  Real systems hold a stripe lock here; the
        # freeze then keeps new deltas from racing the placement switch —
        # a delta aimed at the dead home after the capture would be lost.
        # The freeze is exclusive: two overlapping recoveries rebuilding two
        # blocks of ONE stripe must serialize, or the second capture races
        # the first rebuild's stash replay.  Check-and-freeze is atomic —
        # the DES never preempts between the last poll and the freeze.
        yield from ecfs.settle_stripe(block.file_id, block.stripe)
        ecfs.freeze_stripe(block.file_id, block.stripe)
        try:
            # Capture every source at ONE simulated instant (the fetches
            # above only charge I/O + network time) so nothing mutates
            # between the individual source reads.
            available: dict[int, np.ndarray] = {}
            for src_bid in sources:
                src = ecfs.osd_hosting(src_bid)
                if src.failed:
                    raise IntegrityError(f"{src.name} died mid-fetch")  # retry
                if src_bid in src.store.corrupted:
                    # latent sector error surfaced by the read checksum
                    # between selection and capture: retry with another
                    raise IntegrityError(f"{src_bid} failed its checksum")
                available[src_bid.idx] = src.store.read(src_bid)
            # decode: k GF-scaled XOR accumulations over a full block
            yield env.timeout_us(
                ecfs.config.costs.gf_mul(ecfs.config.block_size, terms=ecfs.rs.k)
            )
            rebuilt = ecfs.rs.decode(available, [block.idx])[block.idx]
            # replay any stashed (replicated-log) updates onto the rebuild
            yield env.process(
                ecfs.method.post_rebuild(block, ecfs.osds[target], rebuilt),
                name=f"rec-replay-{block}",
            )
            tosd = ecfs.osds[target]
            yield from tosd.io_block(
                IOKind.WRITE, block, 0, ecfs.config.block_size, self._io_priority
            )
            tosd.store.put(block, rebuilt)
            # epoch remap: the rebuilt block's actual home is now `target`
            # (cleared automatically if a later epoch makes it ideal again)
            ecfs.placement.pin(block, target)
        finally:
            ecfs.thaw_stripe(block.file_id, block.stripe)

    def _survivor_sources(self, block: BlockId) -> list[BlockId]:
        ecfs = self.ecfs
        out = []
        for i in range(ecfs.rs.k + ecfs.rs.m):
            if i == block.idx:
                continue
            bid = BlockId(block.file_id, block.stripe, i)
            osd = ecfs.osd_hosting(bid)
            # a block with a latent sector error fails its read checksum:
            # as unusable for decoding as a dead node (scrub repairs it)
            if not osd.failed and bid not in osd.store.corrupted:
                out.append(bid)
            if len(out) == ecfs.rs.k:
                break
        return out

    def _fetch(self, src_bid: BlockId, target: int) -> Generator:
        """Charge the read + transfer cost of shipping one source block; the
        bytes themselves are captured atomically by the caller."""
        ecfs = self.ecfs
        src = ecfs.osd_hosting(src_bid)
        yield from src.io_block(
            IOKind.READ, src_bid, 0, ecfs.config.block_size, self._io_priority
        )
        yield from ecfs.net.transfer(
            src.name, ecfs.osds[target].name, ecfs.config.block_size
        )

    def _rebuild_target(self, block: BlockId, failed_idx: int) -> int:
        """Spread rebuilt blocks over survivors not already in the stripe."""
        ecfs = self.ecfs
        in_stripe = {
            ecfs.placement.home_of(BlockId(block.file_id, block.stripe, i))
            for i in range(ecfs.rs.k + ecfs.rs.m)
        }
        n = len(ecfs.osds)
        start = (failed_idx + 1 + (block.stripe % n)) % n
        for off in range(n):
            cand = (start + off) % n
            if cand != failed_idx and not ecfs.osds[cand].failed and cand not in in_stripe:
                return cand
        # degenerate case (n == k+m): reuse any live node
        for off in range(n):
            cand = (start + off) % n
            if cand != failed_idx and not ecfs.osds[cand].failed:
                return cand
        raise RuntimeError("no live node available for rebuild")
