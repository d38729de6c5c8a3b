"""Client: POSIX-ish front end — routed updates and reads.

This is the seed-compatible *thin shim* over the front-end request path:
op construction (ids, payload RNG streams) lives here, while the actual
dispatch generators — primary routing, remap chasing, freeze waits,
degraded fallback — live in :mod:`repro.frontend.ops` and are shared with
the QoS-aware :class:`~repro.frontend.dispatcher.FrontEnd` pipeline.  The
shim adds no simulation events of its own, so figure/table runs driven
through ``Client`` are byte-identical to the pre-refactor tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

import numpy as np

from repro.cluster.ids import BlockId
from repro.common.randbytes import uniform_bytes
from repro.frontend import ops as _ops

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.ecfs import ECFS

__all__ = ["UpdateOp", "Client"]


@dataclass
class UpdateOp:
    """One update landing on a data block."""

    op_id: int
    block: BlockId
    offset: int  # within the block
    payload: np.ndarray
    issued_at: float = 0.0
    client: str = ""

    @property
    def size(self) -> int:
        return int(self.payload.shape[0])


class Client:
    """A client node: forwards updates and reads (§4.3)."""

    def __init__(self, ecfs: "ECFS", idx: int) -> None:
        self.ecfs = ecfs
        self.idx = idx
        self.name = f"client{idx}"
        self.env = ecfs.env
        self._op_counter = 0
        self._payload_rng = np.random.default_rng(
            np.random.SeedSequence([ecfs.config.seed, 0xC11E57, idx])
        )

    # --------------------------------------------------------------- update
    def update(self, file_id: int, offset: int, size: int) -> Generator:
        """Process: one update request, returns (latency seconds)."""
        op = self.make_update_op(file_id, offset, size)
        return (yield from _ops.execute_update(self.ecfs, self.name, op))

    def make_update_op(self, file_id: int, offset: int, size: int) -> UpdateOp:
        """Construct the op one dispatch attempt executes (each attempt gets
        its own op id and payload draw from this client's RNG stream)."""
        ecfs = self.ecfs
        block, in_off, size = _ops.locate_clamped(ecfs, file_id, offset, size)
        payload = uniform_bytes(self._payload_rng, size)
        return UpdateOp(
            op_id=self._next_op(),
            block=block,
            offset=in_off,
            payload=payload,
            issued_at=self.env.now,
            client=self.name,
        )

    # ----------------------------------------------------------------- read
    def read(self, file_id: int, offset: int, size: int) -> Generator:
        """Process: read ``size`` bytes (clamped to one block), returns bytes.

        If the block's home OSD is down, falls back to a degraded read
        (on-the-fly decode from k survivors).
        """
        return (
            yield from _ops.execute_read(self.ecfs, self.name, file_id, offset, size)
        )

    def _next_op(self) -> int:
        self._op_counter += 1
        return self.idx * 1_000_000_000 + self._op_counter
