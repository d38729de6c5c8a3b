"""Background stripe scrubbing: proactive parity-consistency checking.

Production EC systems continuously re-read stripes and verify that parity
matches data, catching silent corruption (bit rot, lost writes) before a
second failure makes it unrecoverable.  The scrubber walks every known
stripe at a bounded rate, reads all k+m blocks (charged to the devices at
background priority), re-encodes, and reports mismatches.  The re-encode is
skipped, and the simulated time still charged, when the generations of the
bytes read equal the stripe's last clean check
(:meth:`~repro.cluster.ecfs.ECFS.stale_parity_rows`).

With ``repair=True`` the scrubber also *fixes* what it finds: blocks whose
read hits a latent sector error (the drive's per-sector checksum fails —
modelled by :attr:`BlockStore.corrupted`) are reconstructed by RS decode
from the stripe's healthy blocks, rewritten in place, and marked clean.
Up to m bad blocks per stripe are repairable; beyond that the stripe is
reported unrecoverable.

Stripes with outstanding log debt are *skipped* (their parity legitimately
lags until recycling catches up) — under TSUE's real-time recycling this
window is small, which the tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator

import numpy as np

from repro.background.work import ScrubOp
from repro.cluster.ids import BlockId
from repro.storage.base import IOKind, IOPriority

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.ecfs import ECFS

__all__ = ["ScrubReport", "Scrubber"]


@dataclass
class ScrubReport:
    stripes_checked: int = 0
    stripes_skipped: int = 0  # log debt or failed node
    mismatches: list[tuple[int, int, int]] = field(default_factory=list)
    # (file_id, stripe, parity row)
    latent_errors: list[BlockId] = field(default_factory=list)
    repaired: list[BlockId] = field(default_factory=list)
    unrecoverable: list[tuple[int, int]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.mismatches and not self.latent_errors


class Scrubber:
    """Walks stripes verifying parity consistency on the live cluster.

    ``freeze=True`` is the under-load mode: instead of skipping stripes with
    in-flight activity, the scrubber waits for settlement and holds the
    recovery-style stripe freeze across its reads, so a concurrent update
    can never tear the capture into a spurious mismatch.  Combined with the
    unified background scheduler's ``scrub`` stream pacing, this is what
    makes continuous scrubbing under foreground traffic safe.
    """

    def __init__(
        self,
        ecfs: "ECFS",
        stripes_per_pass: int | None = None,
        repair: bool = False,
        freeze: bool = False,
    ) -> None:
        self.ecfs = ecfs
        self.stripes_per_pass = stripes_per_pass
        self.repair = repair
        self.freeze = freeze

    def scrub(self) -> Generator:
        """Process: one full pass; returns a :class:`ScrubReport`."""
        ecfs = self.ecfs
        report = ScrubReport()
        stripes = sorted({(b.file_id, b.stripe) for b in ecfs.known_blocks})
        if self.stripes_per_pass is not None:
            stripes = stripes[: self.stripes_per_pass]
        for file_id, stripe in stripes:
            if self._should_skip(file_id, stripe):
                report.stripes_skipped += 1
                continue
            yield from self._scrub_stripe(file_id, stripe, report)
        return report

    # ------------------------------------------------------------ internals
    def _should_skip(self, file_id: int, stripe: int) -> bool:
        ecfs = self.ecfs
        width = ecfs.rs.k + ecfs.rs.m
        if self.freeze:
            # under-load mode waits activity out instead of skipping it;
            # only a down host makes the stripe unscannable
            return any(
                ecfs.osd_hosting(BlockId(file_id, stripe, i)).failed
                for i in range(width)
            )
        # parity legitimately lags while deltas are in flight, buffered for
        # a bounced node, or awaiting a degraded-stripe resync (cheap check
        # first; the per-host loop only runs for quiescent stripes)
        if not ecfs.stripe_quiescent(file_id, stripe):
            return True
        for i in range(width):
            osd = ecfs.osd_hosting(BlockId(file_id, stripe, i))
            # a down host, or outstanding log debt (parity may lag)
            if osd.failed or ecfs.method.log_debt_bytes(osd) > 0:
                return True
        return False

    def _scrub_stripe(self, file_id: int, stripe: int, report: ScrubReport) -> Generator:
        ecfs = self.ecfs
        # unified maintenance plane: one scrub-stream grant per stripe scan
        # (k+m block reads), charged to the primary data host and obtained
        # BEFORE any freeze — a throttled scrub spaces its stripe scans out
        # but never holds a stripe frozen while waiting for tokens
        width = ecfs.rs.k + ecfs.rs.m
        yield from ecfs.background.request(
            ScrubOp(
                osd=ecfs.osd_hosting(BlockId(file_id, stripe, 0)).name,
                nbytes=width * ecfs.config.block_size,
                tag="scrub",
            )
        )
        if self.freeze:
            yield from ecfs.settle_stripe(file_id, stripe)
            ecfs.freeze_stripe(file_id, stripe)
            try:
                if any(
                    ecfs.osd_hosting(BlockId(file_id, stripe, i)).failed
                    for i in range(width)
                ):
                    report.stripes_skipped += 1  # a host died while we waited
                    return
                yield from self._scrub_stripe_body(file_id, stripe, report)
            finally:
                ecfs.thaw_stripe(file_id, stripe)
            return
        # the paced grant may have waited out arbitrary sim time: re-check
        # the skip conditions so a stripe that went busy during the wait is
        # skipped (not read torn and reported as a spurious mismatch).  A
        # disabled scheduler grants instantly — nothing can have changed
        # since scrub() checked one statement earlier.
        if ecfs.background.enabled and self._should_skip(file_id, stripe):
            report.stripes_skipped += 1
            return
        yield from self._scrub_stripe_body(file_id, stripe, report)

    def _scrub_stripe_body(
        self, file_id: int, stripe: int, report: ScrubReport
    ) -> Generator:
        ecfs = self.ecfs
        env = ecfs.env
        bs = ecfs.config.block_size
        width = ecfs.rs.k + ecfs.rs.m
        blocks: list[np.ndarray] = []
        gens: list[int] = []  # each block's generation when its bytes were read
        bad: list[int] = []  # stripe indices whose read hit a sector error
        for i in range(width):
            bid = BlockId(file_id, stripe, i)
            osd = ecfs.osd_hosting(bid)
            yield from osd.io_block(
                IOKind.READ, bid, 0, bs, IOPriority.BACKGROUND, tag="scrub"
            )
            if bid in osd.store.corrupted:
                bad.append(i)
                report.latent_errors.append(bid)
            blocks.append(osd.store.read(bid))
            gens.append(osd.store.generation(bid))
        if bad and self.repair:
            if len(bad) > ecfs.rs.m:
                report.unrecoverable.append((file_id, stripe))
            else:
                yield from self._repair(file_id, stripe, bad, blocks)
                for i in bad:
                    report.repaired.append(BlockId(file_id, stripe, i))
        yield env.timeout_us(ecfs.config.costs.gf_mul(bs * ecfs.rs.k, terms=ecfs.rs.m))
        # a stripe with sector errors never reads or writes the clean record
        stale = ecfs.stale_parity_rows(
            file_id, stripe, None if bad else tuple(gens), blocks.__getitem__, None
        )
        report.mismatches.extend((file_id, stripe, j) for j in stale)
        report.stripes_checked += 1

    def _repair(
        self, file_id: int, stripe: int, bad: list[int], blocks: list[np.ndarray]
    ) -> Generator:
        """Reconstruct the bad blocks from the healthy ones, rewrite them."""
        ecfs = self.ecfs
        env = ecfs.env
        bs = ecfs.config.block_size
        width = ecfs.rs.k + ecfs.rs.m
        good = [i for i in range(width) if i not in bad][: ecfs.rs.k]
        available = {i: blocks[i] for i in good}
        yield env.timeout_us(
            ecfs.config.costs.gf_mul(bs, terms=ecfs.rs.k, times=len(bad))
        )
        fixed = ecfs.rs.decode(available, bad)
        for i in bad:
            bid = BlockId(file_id, stripe, i)
            osd = ecfs.osd_hosting(bid)
            yield from osd.io_block(
                IOKind.WRITE, bid, 0, bs, IOPriority.BACKGROUND,
                overwrite=True, tag="scrub-repair",
            )
            osd.store.write(bid, 0, fixed[i])
            osd.store.mark_clean(bid)
            blocks[i] = fixed[i]
