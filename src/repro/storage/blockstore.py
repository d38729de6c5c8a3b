"""In-memory byte store for blocks — the *contents* side of an OSD's disk.

Timing is charged by the device models; this class holds the actual bytes so
the reproduction can verify end-to-end that every update path leaves stripes
that still decode (see the integrity oracle in :mod:`repro.cluster.verify`,
which keeps its own mirror in a store of this class).

Block memory costs the pages written, not the block.  A block is held one of
three ways, and a mutation never copies a whole block:

* **the zero template** (:func:`~repro.common.zeromem.zero_template`) for a
  zero-filled block; its first mutation gives it a lazily-resident
  :func:`~repro.common.zeromem.zero_block`, which *is* its content;
* **an owned writable array** (``put`` / ``create``, a promoted zero block),
  mutated in place;
* **a shared read-only base** (``create_shared``: a view into a file's
  populate draw or a stripe's populate parity) plus, from its first
  mutation on, an **XOR delta** carved by ``zero_block``.  The content is
  ``base ^ delta``: a write stores ``data ^ base[range]`` into the delta,
  ``xor_in`` and ``corrupt`` XOR into it, so only the pages a mutation
  touches become resident and the base is never written.

Every block carries a **generation**: an integer stamp that names one state
of its bytes.  Stamps come from one module-level counter, so no two states
of any block in any store share one.  Every mutator takes a fresh stamp —
``write``, ``xor_in`` and ``corrupt`` (all through ``_writable``), ``put``,
``create`` with data and ``create_shared``.  An
absent block and a block still on the zero template read as generation 0;
both read as zeros.  Equal generations therefore mean equal bytes, which is
what lets :meth:`~repro.cluster.ecfs.ECFS.stale_parity_rows` skip the
re-encode of a stripe none of whose blocks changed since its last clean
check.  Readers (``read``, ``view``, ``read_view``) never change a stamp,
and nothing outside this module touches the block, delta or generation
dicts (``tests/test_cluster.py`` guards that).
"""

from __future__ import annotations

import itertools
from typing import Hashable, Iterable, Iterator

import numpy as np

from repro.common.errors import IntegrityError
from repro.common.zeromem import zero_block, zero_template

__all__ = ["BlockStore"]

#: the one source of generation stamps, shared by every store (0 is never
#: drawn: it names zero content)
_next_stamp = itertools.count(1).__next__


class BlockStore:
    """Mapping of block id -> block bytes with ranged read/write."""

    def __init__(self, block_size: int) -> None:
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.block_size = block_size
        #: block id -> zero template, owned array, or shared read-only base
        self._blocks: dict[Hashable, np.ndarray] = {}
        #: block id -> XOR delta over its shared base (see module docstring)
        self._deltas: dict[Hashable, np.ndarray] = {}
        #: block id -> generation stamp; absent while the block reads zeros
        #: off the zero template (see module docstring)
        self._gens: dict[Hashable, int] = {}
        #: blocks carrying a latent sector error (drive-detectable on read)
        self.corrupted: set[Hashable] = set()
        # zero-filled blocks share one read-only array — the same object in
        # every store of this block size — until first mutation (bulk
        # populate creates thousands of them; most are never written)
        self._zero = zero_template(block_size)

    def __contains__(self, block_id: Hashable) -> bool:
        return block_id in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._blocks)

    def generation(self, block_id: Hashable) -> int:
        """The stamp of ``block_id``'s current bytes; 0 for zero content
        that was never written (an absent or zero-template block)."""
        return self._gens.get(block_id, 0)

    def create(self, block_id: Hashable, data: np.ndarray | None = None) -> None:
        """Materialize a block, zero-filled or from a copy of ``data``."""
        if block_id in self._blocks:
            raise IntegrityError(f"block {block_id!r} already exists")
        if data is None:
            self._blocks[block_id] = self._zero  # promoted on mutation
        else:
            self.put(block_id, data)

    def put(self, block_id: Hashable, data: np.ndarray, own: bool = False) -> None:
        """Land a whole block, whether or not the store already holds it —
        a client stripe write, a rebuild, a migration copy or a parity
        resync arrives the same way on a first write and on a rewrite.  The
        previous content (and any delta) is dropped, not written through.
        ``own=True`` transfers ownership of ``data`` (a fresh, unshared,
        writable uint8 array) to the store instead of copying it — the
        rebuild paths hand over arrays nothing else references."""
        data = self._whole_block(block_id, data)
        self._deltas.pop(block_id, None)
        self._gens[block_id] = _next_stamp()
        if own and data.flags.owndata and data.flags.writeable:
            self._blocks[block_id] = data
        else:
            self._blocks[block_id] = data.copy()

    def create_shared(self, block_id: Hashable, data: np.ndarray) -> None:
        """Materialize a block as a read-only view sharing ``data``'s buffer.

        The zero-copy sibling of ``put(own=True)`` for bulk paths that
        carve many blocks out of one backing buffer (random-fill populate's
        draw and parity, a cached populate): the view becomes the block's
        base, and its mutations land in an XOR delta, never in ``data``.
        The caller must not mutate the backing buffer afterwards.
        """
        if block_id in self._blocks:
            raise IntegrityError(f"block {block_id!r} already exists")
        data = self._whole_block(block_id, data)
        if data.flags.writeable:
            data = data.view()
            data.flags.writeable = False
        self._blocks[block_id] = data
        self._gens[block_id] = _next_stamp()

    def create_zero_many(self, block_ids: Iterable[Hashable]) -> None:
        """Materialize zero-filled blocks sharing the zero template (no
        allocation), each promoted to a lazily-resident block on first
        mutation: one existence sweep, one dict update."""
        ids = list(block_ids)
        for bid in ids:
            if bid in self._blocks:
                raise IntegrityError(f"block {bid!r} already exists")
        zero = self._zero
        self._blocks.update((bid, zero) for bid in ids)

    def _writable(self, block_id: Hashable) -> tuple[np.ndarray, np.ndarray | None]:
        """The writable array a mutation of ``block_id`` lands in, and the
        shared base under it (``None`` when the array is the content);
        materializes a missing block.  Both new arrays are carves from a
        lazily-zero mmap arena: a page becomes resident when a byte is
        written to it, so a 4 KiB write into a 256 KiB block costs 4 KiB of
        memory, not the block.  The mutation takes a fresh generation."""
        self._gens[block_id] = _next_stamp()
        block = self._blocks.get(block_id)
        if block is None or block is self._zero:
            block = self._blocks[block_id] = zero_block(self.block_size)
            return block, None
        if block.flags.writeable:
            return block, None
        delta = self._deltas.get(block_id)
        if delta is None:
            delta = self._deltas[block_id] = zero_block(self.block_size)
        return delta, block

    def read(self, block_id: Hashable, offset: int = 0, size: int | None = None) -> np.ndarray:
        """Copy out ``size`` bytes at ``offset`` (whole block by default)."""
        data = self._slice(block_id, offset, size)
        # a fresh ``base ^ delta`` is already the caller's own copy
        return data if data.flags.owndata else data.copy()

    def view(self, block_id: Hashable) -> np.ndarray:
        """Read-only whole block (see :meth:`read_view`)."""
        data = self._slice(block_id, 0, None)
        data.flags.writeable = False
        return data

    def read_view(
        self, block_id: Hashable, offset: int = 0, size: int | None = None
    ) -> np.ndarray:
        """Read-only bytes of a range — the hot-path alternative to
        :meth:`read` for callers that *consume* the bytes (e.g. XOR them
        into a fresh delta) before the next simulation yield.  Zero-copy
        where the block is one array; a block over a shared base returns
        ``base ^ delta``, a fresh array.  Whether a later mutation shows
        through is not specified, so snapshot semantics require
        materializing a derived array immediately."""
        data = self._slice(block_id, offset, size)
        data.flags.writeable = False
        return data

    def write(self, block_id: Hashable, offset: int, data: np.ndarray) -> None:
        """Write ``data`` at ``offset``, materializing the block if needed."""
        data = np.asarray(data, dtype=np.uint8)
        end = offset + data.shape[0]
        self._check_range(offset, data.shape[0])
        target, base = self._writable(block_id)
        if base is None:
            target[offset:end] = data
        else:
            np.bitwise_xor(data, base[offset:end], out=target[offset:end])

    def xor_in(self, block_id: Hashable, offset: int, delta: np.ndarray) -> None:
        """In-place XOR merge — the parity-log recycle primitive."""
        delta = np.asarray(delta, dtype=np.uint8)
        self._check_range(offset, delta.shape[0])
        self._writable(block_id)[0][offset : offset + delta.shape[0]] ^= delta

    def corrupt(self, block_id: Hashable, offset: int, nbytes: int) -> None:
        """Inject a latent sector error: flip bytes in place, bypassing the
        write path.  The damage is flagged in :attr:`corrupted` — the model's
        stand-in for the per-sector checksum a real drive fails on read —
        which scrubbing consults to localize and repair the block."""
        if block_id not in self._blocks:
            raise IntegrityError(f"block {block_id!r} does not exist")
        self._check_range(offset, nbytes)
        # XOR with a non-zero constant always changes the bytes, and lands
        # in a delta exactly as in an owned array
        self._writable(block_id)[0][offset : offset + nbytes] ^= 0xA5
        self.corrupted.add(block_id)

    def mark_clean(self, block_id: Hashable) -> None:
        """Clear the latent-error flag after a repair rewrote the block."""
        self.corrupted.discard(block_id)

    def nbytes(self) -> int:
        return len(self._blocks) * self.block_size

    # ------------------------------------------------------------ internals
    def _slice(self, block_id: Hashable, offset: int, size: int | None) -> np.ndarray:
        """Bytes ``[offset, offset + size)`` of a block: a view of its array,
        or ``base ^ delta`` as a fresh one.  A block nothing was written to
        reads as zeros — what :meth:`write` and :meth:`xor_in` assume when
        they materialize one — and stays absent (``not in`` the store) until
        a write lands."""
        size = self.block_size - offset if size is None else size
        self._check_range(offset, size)
        end = offset + size
        data = self._blocks.get(block_id, self._zero)[offset:end]
        delta = self._deltas.get(block_id)
        return data if delta is None else data ^ delta[offset:end]

    def _whole_block(self, block_id: Hashable, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=np.uint8)
        if data.shape != (self.block_size,):
            raise IntegrityError(
                f"block {block_id!r}: size {data.shape} != {self.block_size}"
            )
        return data

    def _check_range(self, offset: int, size: int) -> None:
        if offset < 0 or size <= 0 or offset + size > self.block_size:
            raise IntegrityError(
                f"range [{offset}, {offset + size}) outside block of "
                f"{self.block_size} bytes"
            )
