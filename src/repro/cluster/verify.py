"""Ground-truth oracle: end-to-end correctness of every update path.

Update methods call :meth:`GroundTruth.apply` at their commit point (the
moment an update is durably ordered).  After a run is drained/flushed, the
harness calls :meth:`verify_cluster` which checks, stripe by stripe, that

1. every data block in the OSD block stores equals the oracle's bytes, and
2. the parity blocks equal a fresh RS encode of the data blocks.

Any divergence raises :class:`IntegrityError` — the reproduction's tests
run every method through this oracle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.cluster.ids import BlockId
from repro.common.errors import IntegrityError
from repro.common.zeromem import zero_block, zero_template
from repro.ec.rs import RSCode

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.ecfs import ECFS

__all__ = ["GroundTruth"]


class GroundTruth:
    """Mirror of committed data-block contents."""

    def __init__(self, block_size: int) -> None:
        self.block_size = block_size
        self._blocks: dict[BlockId, np.ndarray] = {}
        self.applied_updates = 0
        # copy-on-write zero template (bulk zero-fill populate registers
        # hundreds of blocks; most never see an update) — the same object
        # the block stores of this block size hold
        self._zero = zero_template(block_size)

    def touch(self, block: BlockId) -> None:
        """Register a known-zero block without allocating (CoW template)."""
        self._blocks.setdefault(block, self._zero)

    def touch_many(self, blocks: Iterable[BlockId]) -> None:
        """Bulk :meth:`touch` for the zero-fill populate path."""
        zero = self._zero
        setdefault = self._blocks.setdefault
        for block in blocks:
            setdefault(block, zero)

    def adopt(self, block: BlockId, data: np.ndarray) -> None:
        """Register initial content zero-copy, outside update accounting.

        Stores a read-only view sharing the caller's buffer (the vectorized
        populate path carves blocks out of one backing matrix); the
        copy-on-write promotion in :meth:`apply` gives the block a private
        array on its first real update.  Does not count toward
        :attr:`applied_updates` — this is initial state, not an update.
        """
        data = np.asarray(data, dtype=np.uint8)
        if data.shape != (self.block_size,):
            raise IntegrityError(
                f"oracle adopt: size {data.shape} != {self.block_size}"
            )
        if data.flags.writeable:
            data = data.view()
            data.flags.writeable = False
        self._blocks[block] = data

    def ensure(self, block: BlockId) -> np.ndarray:
        arr = self._blocks.get(block)
        if arr is None:
            arr = self._blocks[block] = self._zero
        return arr

    def apply(self, block: BlockId, offset: int, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=np.uint8)
        if offset < 0 or offset + data.shape[0] > self.block_size:
            raise IntegrityError("oracle write outside block")
        target = self._blocks.get(block)
        if target is None or target is self._zero:
            # CoW promotion on the first real write: a carve from a
            # lazily-zero mmap arena, resident only where bytes land
            target = self._blocks[block] = zero_block(self.block_size)
        elif not target.flags.writeable:
            target = self._blocks[block] = target.copy()
        target[offset : offset + data.shape[0]] = data
        self.applied_updates += 1

    def expected(self, block: BlockId) -> np.ndarray:
        return self.ensure(block)

    def stripes(self) -> set[tuple[int, int]]:
        return {(b.file_id, b.stripe) for b in self._blocks}

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
