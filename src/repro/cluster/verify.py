"""Ground-truth oracle: end-to-end correctness of every update path.

Update methods call :meth:`GroundTruth.apply` at their commit point (the
moment an update is durably ordered).  After a run is drained/flushed, the
harness calls :meth:`verify_cluster` which checks, stripe by stripe, that

1. every data block in the OSD block stores equals the oracle's bytes, and
2. the parity blocks equal a fresh RS encode of the data blocks.

Any divergence raises :class:`IntegrityError` — the reproduction's tests
run every method through this oracle.

The mirror is a :class:`~repro.storage.blockstore.BlockStore`, so the oracle
shares, promotes and reads block bytes by the same rules as an OSD's store:
zero-fill blocks stand on the zero template, populate blocks are read-only
views of the populate matrix, and an update into one of those costs the
pages it writes (an XOR delta), not a copy of the block.
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
        caller's buffer (a populate matrix), never written through."""
        self.store.create_shared(block, data)

    def put(self, block: BlockId, data: np.ndarray) -> None:
        """Land a whole block — a client stripe write — as
        :meth:`BlockStore.put` does; initial content, not an update."""
        self.store.put(block, data)

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
        data_blocks: list[np.ndarray] = []
        for i in range(rs.k):
            bid = BlockId(file_id, stripe, i)
            osd = ecfs.osd_hosting(bid)
            got = osd.store.view(bid)
            want = self.expected(bid)
            if not np.array_equal(got, want):
                diff = int(np.count_nonzero(got != want))
                raise IntegrityError(
                    f"stripe f{file_id}.s{stripe}: data block {i} diverges from "
                    f"oracle in {diff} bytes"
                )
            data_blocks.append(np.asarray(got))
        expected_parity = rs.encode(data_blocks)
        for j in range(rs.m):
            bid = BlockId(file_id, stripe, rs.k + j)
            osd = ecfs.osd_hosting(bid)
            got = osd.store.view(bid)
            if not np.array_equal(np.asarray(got), expected_parity[j]):
                diff = int(np.count_nonzero(np.asarray(got) != expected_parity[j]))
                raise IntegrityError(
                    f"stripe f{file_id}.s{stripe}: parity block {j} stale "
                    f"({diff} bytes differ)"
                )

    def verify_cluster(
        self, ecfs: "ECFS", rs: RSCode, stripes: Iterable[tuple[int, int]] | None = None
    ) -> int:
        """Verify all (or the given) stripes; returns stripes checked."""
        todo = sorted(stripes if stripes is not None else self.stripes())
        for file_id, stripe in todo:
            self.verify_stripe(ecfs, file_id, stripe, rs)
        return len(todo)
