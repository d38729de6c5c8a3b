"""Zero-filled block memory that costs what is written to it.

The byte plane addresses far more block bytes than it writes: a 4 KiB update
lands in a 256 KiB block, and most of a parity block that takes one delta
stays zero for the rest of the run.  ``np.zeros(block_size)`` charges the
whole block at once — glibc serves the request from recycled heap and
memsets it, and keeps the heap after the cluster is collected, so the next
run starts from the previous run's peak.

The two functions here hand out memory the kernel zeroes page by page:

* :func:`zero_block` — a writable, page-aligned, zero-filled ``uint8`` array
  carved by a bump pointer from a private anonymous ``mmap`` arena.  A page
  becomes resident when a byte is written to it; reading an untouched page
  (digest, verify, scrub, delta reads) maps the kernel's shared zero page
  and adds nothing to RSS.  There is no free list: an arena is unmapped, and
  its pages go back to the OS, when the last block carved from it dies.  A
  request larger than an arena gets a mapping of its own.
* :func:`zero_template` — the one process-wide read-only zero array of a
  size, mapped ``PROT_READ`` so neither it nor any view of it can be made
  writable.  Every ``BlockStore`` (the oracle's mirror is one) stands the
  same object in for its never-written blocks (``is`` identity marks "still
  zero").

Callers: ``storage/blockstore.py`` only — a zero block is a promoted
zero-template block or the XOR delta over a shared populate base; the oracle
gets both through its ``BlockStore``.

Two traps, both measured on the way here:

* Python's ``mmap.mmap(-1, n)`` defaults to ``MAP_SHARED``, where a *read*
  fault allocates a real (shmem) page: hashing the untouched blocks in
  ``cluster_digest`` alone took ``ru_maxrss`` from 190 to 348 MiB on the
  1000-OSD workload.  The arenas must be ``MAP_PRIVATE``.
* An arena made with ``np.zeros`` is ``madvise``d to huge pages by numpy
  (allocations >= 4 MiB), so one written byte makes 2 MiB resident.  The
  arenas are ``madvise(MADV_NOHUGEPAGE)``: residency stays 4 KiB-granular
  even where transparent huge pages are set to ``always``.

The ``hasattr`` checks observe the platform (``MAP_PRIVATE`` and ``madvise``
are POSIX/Linux); they are not options.  The allocator state is private to
this module, held in objects changed in place rather than in rebound
globals, and, like the rest of the simulator, assumes one thread.
"""

from __future__ import annotations

import mmap

import numpy as np

from repro.common.units import MiB

__all__ = ["zero_block", "zero_template"]

#: one arena = 8 blocks of 256 KiB.  An arena's written pages stay resident
#: until its *last* block dies, so the arena is kept to a few blocks: on
#: ``scenario_registry`` (21 clusters built and dropped in one process)
#: ``peak_rss_mb`` read 464.9 with 32 MiB arenas, 446.2 with 8 MiB and 440.4
#: with 2 MiB (``np.zeros`` promotions: 454.3); ``wide_1000osd`` read 194 at
#: all three.  The price is one ``mmap`` / ``munmap`` per 8 promotions:
#: 3.5-5.5 us against 2.5 us per promote + 4 KiB write + free, a few
#: milliseconds on a thousand promotions.
ARENA_BYTES = 2 * MiB
_PAGE = mmap.PAGESIZE


class _Bump:
    """The bump pointer: the arena being carved and the bytes of it handed
    out so far (a multiple of ``_PAGE``).  One instance, changed in place —
    no module global is ever rebound."""

    __slots__ = ("arena", "used")

    def __init__(self) -> None:
        self.arena: np.ndarray | None = None
        self.used = 0


_bump = _Bump()
_templates: dict[int, np.ndarray] = {}


def _map(nbytes: int, writable: bool = True) -> np.ndarray:
    """A fresh zero-filled private anonymous mapping as a ``uint8`` array.
    The array's buffer export keeps the mapping alive; the mapping is
    unmapped when the array and every view of it are gone."""
    if hasattr(mmap, "MAP_PRIVATE"):
        buf = mmap.mmap(
            -1,
            nbytes,
            flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS,
            prot=mmap.PROT_READ | (mmap.PROT_WRITE if writable else 0),
        )
    else:  # no POSIX flags (Windows): anonymous pagefile-backed memory
        buf = mmap.mmap(
            -1, nbytes, access=mmap.ACCESS_WRITE if writable else mmap.ACCESS_READ
        )
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=np.uint8)


def zero_block(nbytes: int) -> np.ndarray:
    """A writable, page-aligned, zero-filled ``uint8`` array of ``nbytes``
    that nothing else references (see module docstring)."""
    if nbytes <= 0:
        raise ValueError("nbytes must be positive")
    if nbytes > ARENA_BYTES:
        return _map(nbytes)
    span = -(-nbytes // _PAGE) * _PAGE
    bump = _bump
    if bump.arena is None or bump.used + span > ARENA_BYTES:
        bump.arena, bump.used = _map(ARENA_BYTES), 0
    start = bump.used
    bump.used = start + span
    return bump.arena[start : start + nbytes]


def zero_template(nbytes: int) -> np.ndarray:
    """The process-wide read-only zero array of ``nbytes``: the same object
    on every call, never resident, never writable."""
    template = _templates.get(nbytes)
    if template is None:
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        template = _templates[nbytes] = _map(nbytes, writable=False)
    return template
