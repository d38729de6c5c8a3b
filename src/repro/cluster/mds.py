"""Metadata server: namespace, block locations and OSD liveness.

Every trace is replayed onto files that :meth:`ECFS.populate` has already
written in full, so each write is an *update* of written space.  The MDS
therefore keeps no per-file page bitmap and no write/update
classification: the paper's §4.3 normal-write path (client-side encode,
full-stripe placement) is not modelled.  The MDS maps a file offset to its
data block and watches OSD heartbeats, triggering recovery when one goes
silent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.cluster.ids import BlockId
from repro.common.errors import IntegrityError
from repro.placement.epoch import PlacementMap

__all__ = ["FileMeta", "MDS"]


@dataclass
class FileMeta:
    file_id: int
    size: int


class MDS:
    """Namespace + placement oracle + heartbeat monitor."""

    def __init__(self, placement: PlacementMap, block_size: int) -> None:
        self.placement = placement
        self.block_size = block_size
        self.files: dict[int, FileMeta] = {}
        self._next_file_id = 1
        self.heartbeats: dict[int, float] = {}
        self.failed: set[int] = set()
        self.on_failure: Optional[Callable[[int], None]] = None
        self.heartbeat_timeout = 5.0

    # ----------------------------------------------------------- namespace
    def create_file(self, size: int) -> FileMeta:
        if size <= 0:
            raise IntegrityError("file size must be positive")
        fid = self._next_file_id
        self._next_file_id += 1
        meta = FileMeta(fid, size)
        self.files[fid] = meta
        return meta

    def lookup(self, file_id: int) -> FileMeta:
        try:
            return self.files[file_id]
        except KeyError:
            raise IntegrityError(f"no such file {file_id}") from None

    # ------------------------------------------------------------ location
    def locate(self, file_id: int, offset: int, k: int) -> tuple[BlockId, int]:
        """Map a file byte offset to (data BlockId, in-block offset)."""
        meta = self.lookup(file_id)
        if offset >= meta.size:
            raise IntegrityError(f"offset {offset} beyond EOF {meta.size}")
        stripe_bytes = k * self.block_size
        stripe = offset // stripe_bytes
        within = offset % stripe_bytes
        idx = within // self.block_size
        return BlockId(file_id, stripe, idx), within % self.block_size

    # ----------------------------------------------------------- liveness
    def heartbeat(self, osd_idx: int, now: float) -> None:
        self.heartbeats[osd_idx] = now

    def check_liveness(self, now: float) -> list[int]:
        """Return OSDs newly declared failed; fires ``on_failure`` for each."""
        newly = [
            idx
            for idx, last in self.heartbeats.items()
            if idx not in self.failed and now - last > self.heartbeat_timeout
        ]
        for idx in newly:
            self.failed.add(idx)
            if self.on_failure is not None:
                self.on_failure(idx)
        return newly

    def declare_failed(self, osd_idx: int) -> None:
        self.failed.add(osd_idx)

    def declare_recovered(self, osd_idx: int) -> None:
        """Readmit a node that proved liveness again (restart / healed
        partition); recovery-rebuilt nodes stay failed forever."""
        self.failed.discard(osd_idx)
