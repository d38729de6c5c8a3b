"""Ground-truth oracle: end-to-end correctness of every update path.

Update methods call :meth:`GroundTruth.apply` at their commit point (the
moment an update is durably ordered).  After a run is drained/flushed, the
harness calls :meth:`verify_cluster` which checks, stripe by stripe, that

1. every data block in the OSD block stores equals the oracle's bytes, and
2. the parity blocks equal a fresh RS encode of the data blocks — unless
   the generations of the stripe's k+m blocks equal those at its last clean
   check, in which case the bytes are the ones that checked clean and the
   re-encode is skipped
   (:meth:`~repro.cluster.ecfs.ECFS.stale_parity_rows`).

Any divergence raises :class:`IntegrityError` — the reproduction's tests
run every method through this oracle.

The mirror is a :class:`~repro.storage.blockstore.BlockStore`, so the oracle
shares, promotes and reads block bytes by the same rules as an OSD's store:
zero-fill blocks stand on the zero template, populate blocks are read-only
views of a file's populate draw or a stripe's parity, and an update into
one of those costs the pages it writes (an XOR delta), not a copy of the
block.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.cluster.ids import BlockId
from repro.common.errors import IntegrityError
from repro.ec.rs import RSCode
from repro.storage.blockstore import BlockStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.ecfs import ECFS

__all__ = ["GroundTruth"]


class GroundTruth:
    """Mirror of committed data-block contents."""

    def __init__(self, block_size: int) -> None:
        self.block_size = block_size
        #: the mirror; only :meth:`apply` counts toward :attr:`applied_updates`
        self.store = BlockStore(block_size)
        self.applied_updates = 0

    def touch_many(self, blocks: Iterable[BlockId]) -> None:
        """Register known-zero blocks without allocating (zero-fill populate)."""
        self.store.create_zero_many(blocks)

    def adopt(self, block: BlockId, data: np.ndarray) -> None:
        """Register initial content zero-copy: a read-only view sharing the
        caller's buffer (a file's populate draw), never written through."""
        self.store.create_shared(block, data)

    def apply(self, block: BlockId, offset: int, data: np.ndarray) -> None:
        """Commit one update."""
        self.store.write(block, offset, data)
        self.applied_updates += 1

    def expected(self, block: BlockId) -> np.ndarray:
        """Read-only committed bytes of ``block`` (zeros if never written)."""
        return self.store.view(block)

    def stripes(self) -> set[tuple[int, int]]:
        return {(b.file_id, b.stripe) for b in self.store}

    # ------------------------------------------------------------ checking
    def verify_stripe(
        self, ecfs: "ECFS", file_id: int, stripe: int, rs: RSCode
    ) -> None:
        bids = [BlockId(file_id, stripe, i) for i in range(rs.k + rs.m)]
        stores = [ecfs.osd_hosting(bid).store for bid in bids]
        gens = tuple(store.generation(bid) for store, bid in zip(stores, bids))
        data_blocks: list[np.ndarray] = []
        for i in range(rs.k):
            got = stores[i].view(bids[i])
            want = self.expected(bids[i])
            if not np.array_equal(got, want):
                diff = int(np.count_nonzero(got != want))
                raise IntegrityError(
                    f"stripe f{file_id}.s{stripe}: data block {i} diverges from "
                    f"oracle in {diff} bytes"
                )
            data_blocks.append(got)
        stale = ecfs.stale_parity_rows(
            file_id,
            stripe,
            gens,
            data_blocks,
            lambda j: stores[rs.k + j].view(bids[rs.k + j]),
        )
        if stale:
            j, diff = next(iter(stale.items()))  # the first stale row
            raise IntegrityError(
                f"stripe f{file_id}.s{stripe}: parity block {j} stale "
                f"({diff} bytes differ)"
            )

    def verify_cluster(self, ecfs: "ECFS", rs: RSCode) -> int:
        """Verify every stripe; returns stripes checked."""
        todo = sorted(self.stripes())
        for file_id, stripe in todo:
            self.verify_stripe(ecfs, file_id, stripe, rs)
        return len(todo)
