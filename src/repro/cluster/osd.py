"""Object storage device server (OSD): one node's disk, block store, logs.

The OSD provides the primitives update methods compose:

* :meth:`io_block` — charge device time for an in-place block read/write at
  the block's real disk address (random unless the caller streams),
* :meth:`io_log_append` — charge a sequential append on a named log stream,
* :meth:`io_at` — raw addressed I/O (PLR's reserved-space appends use this
  so appends to many parity blocks' reserved areas look random, as §2.2
  describes).

Actual block bytes live in :attr:`store`; update methods move real data so
stripes remain verifiable.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Generator, Hashable

from repro.common.errors import IntegrityError, UnavailableError
from repro.sim import Environment, Resource
from repro.storage.base import IOKind, IOPriority, IORequest, StorageDevice
from repro.storage.blockstore import BlockStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.update.base import UpdateMethod

__all__ = ["OSD", "scattered_addr"]


def scattered_addr(label: str) -> int:
    """32-bit device address for a named log region: scattered over the
    device, and the same in every process — ``hash()`` of anything holding
    a ``str`` moves with ``PYTHONHASHSEED``, and the address feeds the
    device's sequential-or-random classification, i.e. simulated time."""
    return zlib.crc32(label.encode())


class OSD:
    """One storage node."""

    #: disk region where log streams live, far from block storage
    _LOG_REGION = 1 << 42

    def __init__(
        self,
        env: Environment,
        idx: int,
        device: StorageDevice,
        block_size: int,
    ) -> None:
        self.env = env
        self.idx = idx
        self.name = f"osd{idx}"
        self.device = device
        self.block_size = block_size
        self.store = BlockStore(block_size)
        self.failed = False
        self.method: "UpdateMethod | None" = None

        self._block_addr: dict[Hashable, int] = {}
        self._next_block_slot = 0
        self._log_cursor: dict[str, int] = {}
        self._block_locks: dict[Hashable, Resource] = {}
        # hoisted per-stream strings/addresses: the recycler and log-append
        # inner loops hit these helpers once per I/O, and the f-string +
        # hash were measurable there
        self._stream_names: dict[str, str] = {}
        self._log_bases: dict[str, int] = {}

    def _qualified_stream(self, stream: str) -> str:
        name = self._stream_names.get(stream)
        if name is None:
            name = self._stream_names[stream] = f"{self.name}:{stream}"
        return name

    def _log_base(self, stream: str) -> int:
        base = self._log_bases.get(stream)
        if base is None:
            base = self._log_bases[stream] = self._LOG_REGION + (
                scattered_addr(stream) & 0xFFFF
            ) * (1 << 34)
        return base

    def _lane_priority(self, priority: int) -> int:
        """Apply the active process's scheduling lane (if any) as a priority
        floor — a deadline-demoted front-end request tree issues all further
        device I/O at its lane's (weaker) priority, end-to-end, without the
        call sites threading priority through every layer."""
        proc = self.env.active_process
        if proc is not None and proc.lane is not None:
            return proc.lane.floor(priority)
        return priority

    def block_lock(self, block_id: Hashable) -> Resource:
        """Per-block mutex (§4: block-level locking for concurrent updates).

        Read-modify-write update paths must hold this across their read and
        write so concurrent updates to one block cannot lose deltas.
        """
        lock = self._block_locks.get(block_id)
        if lock is None:
            lock = self._block_locks[block_id] = Resource(self.env, capacity=1)
        return lock

    # ----------------------------------------------------------- addresses
    def block_addr(self, block_id: Hashable) -> int:
        """Disk base address of a block (allocated on first touch)."""
        addr = self._block_addr.get(block_id)
        if addr is None:
            addr = self._next_block_slot * self.block_size
            self._block_addr[block_id] = addr
            self._next_block_slot += 1
        return addr

    # ------------------------------------------------------------ device IO
    def io_block(
        self,
        kind: IOKind,
        block_id: Hashable,
        offset: int,
        size: int,
        priority: int = IOPriority.FOREGROUND,
        overwrite: bool = False,
        tag: str = "",
    ) -> Generator:
        """In-place block I/O at the block's disk address."""
        self.check_alive()
        if offset < 0 or size <= 0 or offset + size > self.block_size:
            raise IntegrityError(
                f"{self.name}: I/O [{offset},{offset+size}) outside block"
            )
        req = IORequest(
            kind=kind,
            offset=self.block_addr(block_id) + offset,
            size=size,
            stream="blocks",
            priority=self._lane_priority(priority),
            overwrite=overwrite and kind is IOKind.WRITE,
            tag=tag,
        )
        yield from self.device.submit(req)

    def io_log_append(
        self,
        stream: str,
        size: int,
        priority: int = IOPriority.FOREGROUND,
        tag: str = "",
    ) -> Generator:
        """Sequential append of ``size`` bytes on log stream ``stream``."""
        self.check_alive()
        cursor = self._log_cursor.get(stream, 0)
        req = IORequest(
            kind=IOKind.WRITE,
            offset=self._log_base(stream) + cursor,
            size=size,
            stream=self._qualified_stream(stream),
            priority=self._lane_priority(priority),
            overwrite=False,
            tag=tag,
        )
        self._log_cursor[stream] = cursor + size
        yield from self.device.submit(req)

    def io_at(
        self,
        kind: IOKind,
        addr: int,
        size: int,
        stream: str,
        priority: int = IOPriority.FOREGROUND,
        overwrite: bool = False,
        tag: str = "",
    ) -> Generator:
        """Raw addressed I/O (reserved-space log schemes)."""
        self.check_alive()
        req = IORequest(
            kind=kind,
            offset=addr,
            size=size,
            stream=self._qualified_stream(stream),
            priority=self._lane_priority(priority),
            overwrite=overwrite and kind is IOKind.WRITE,
            tag=tag,
        )
        yield from self.device.submit(req)

    # ------------------------------------------------------------- failure
    def check_alive(self) -> None:
        """Raise :class:`UnavailableError` if the node is down (``ECFS``
        stopped or crashed it).  Every I/O checks on entry; a log append
        checks again between its device I/O and its commit to the in-memory
        log — the I/O of a node that died meanwhile still returns, but
        ``on_node_failed`` already dropped that node's log, and an entry
        committed now would sit on a dead node that no flush ever visits."""
        if self.failed:
            raise UnavailableError(f"{self.name} has failed")

    def __repr__(self) -> str:
        return f"<OSD {self.name} blocks={len(self.store)}>"
