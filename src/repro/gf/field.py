"""Scalar and vectorized GF(2^8) field operations.

The field is built over the primitive polynomial x^8+x^4+x^3+x^2+1 (0x11d),
the same polynomial used by ISA-L / jerasure.  A full 256x256 multiplication
table ``_MUL`` (64 KiB) is precomputed at import; everything else reads it.

Two functions move block-sized data, one per job:

* :func:`gf_mul_scalar` — one coefficient times one array, a single
  ``bytearray.translate`` through the coefficient's ``_MUL`` row (kept as
  ``bytes`` in ``_MUL_ROWS``).  This is the update path (``ec.incremental``,
  the parity deltas of ``update/*``): small deltas, one coefficient at a
  time.
* :func:`gf_matmul` — a coefficient matrix times a set of equal-length rows,
  the only path a whole block is encoded or rebuilt through (every
  ``RSCode`` method, hence populate, stripe verify, scrub, recovery and
  degraded reads).  It is the jerasure / ISA-L table fusion in numpy: for up
  to four output rows at a time, each input column gets one table indexed by
  a *pair* of input bytes (65,536 entries) whose entry packs the two product
  bytes of every output row of the group into one 2/4/8-byte word.  A column
  then costs one gather per byte pair instead of one per byte per output
  row, words are XOR-accumulated across columns and de-interleaved once.
  Tables depend only on the coefficient matrix; they are built on first use
  and kept in a small LRU (:func:`_pair_tables`).
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "GF_ORDER",
    "PRIMITIVE_POLY",
    "gf_mul",
    "gf_mul_scalar",
    "gf_matmul",
    "gf_div",
    "gf_inv",
    "gf_pow",
]

GF_ORDER = 256
PRIMITIVE_POLY = 0x11D


def _build_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    exp = np.zeros(512, dtype=np.int32)
    log = np.zeros(256, dtype=np.int32)
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= PRIMITIVE_POLY
    exp[255:510] = exp[:255]
    # Full multiplication table: mul[a, b] = a*b, with the zero row/col zeroed.
    mul = exp[(log[:, None] + log[None, :])].astype(np.uint8)
    mul[0, :] = 0
    mul[:, 0] = 0
    return exp, log, mul


_EXP, _LOG, _MUL = _build_tables()
#: ``_MUL[c]`` as a 256-byte translation table, one per coefficient
_MUL_ROWS = tuple(row.tobytes() for row in _MUL)


def gf_mul(a, b) -> np.ndarray:
    """Element-wise product of uint8 arrays/scalars (numpy broadcasting)."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    return _MUL[a, b]


def gf_mul_scalar(coef: int, data) -> np.ndarray:
    """Multiply a data array by one field scalar — the update hot path.

    Returns a fresh, writable uint8 array of ``data``'s shape (any layout;
    ``data`` is never modified).  The product is ``bytearray.translate``
    through the coefficient's row: one C pass over the bytes with no
    uint8-to-index conversion, ~2x ``np.take`` over the same row.  Whole
    blocks times a coefficient *matrix* go through :func:`gf_matmul`; its
    pair tables only win from ~64 KiB up, and parity deltas are smaller.
    """
    coef = int(coef)
    if not 0 <= coef < 256:
        raise ValueError(f"coefficient {coef} outside GF(256)")
    data = np.asarray(data, dtype=np.uint8)
    if coef == 0:
        return np.zeros_like(data)
    if coef == 1:
        return data.copy()
    # through a memoryview: bytearray() of a 0-d array would read it as a
    # length and return that many zero bytes
    product = bytearray(memoryview(data)).translate(_MUL_ROWS[coef])
    return np.frombuffer(product, dtype=np.uint8).reshape(data.shape)


#: output rows fused into one table word, and the word that holds 2 bytes for
#: each of them (three rows pad to eight bytes); little-endian spelled out so
#: byte ``2t + b`` of a word is row ``t``'s product with byte ``b`` of the pair
_GROUP = 4
_WORD = {1: "<u2", 2: "<u4", 3: "<u8", 4: "<u8"}
#: byte pairs gathered per step: 128 KiB of each input row, and two scratch
#: arrays of at most 512 KiB beside one table of at most 512 KiB — inside L2
_CHUNK = 1 << 16


@functools.lru_cache(maxsize=16)
def _pair_tables(r: int, c: int, coefs: bytes) -> tuple[tuple[np.ndarray, ...], ...]:
    """Read-only pair tables for an ``r x c`` coefficient matrix.

    One tuple per group of up to ``_GROUP`` output rows, holding one table
    per input column: ``table[hi << 8 | lo]`` is the word whose 16-bit lane
    ``t`` is ``coef[t] * lo | coef[t] * hi << 8``.  65,536 words per column
    per group (RS(6,4) coding matrix: 3 MiB; a one-row decode matrix:
    128 KiB per column); the LRU keeps the 16 most recently used matrices.
    """
    matrix = np.frombuffer(coefs, dtype=np.uint8).reshape(r, c)
    groups = []
    for g0 in range(0, r, _GROUP):
        sub = matrix[g0 : g0 + _GROUP]
        word = np.dtype(_WORD[len(sub)])
        tables = []
        for j in range(c):
            lanes = np.zeros((65536, word.itemsize // 2), dtype="<u2")
            for t, coef in enumerate(sub[:, j]):
                row = _MUL[coef].astype("<u2")
                lanes[:, t] = (row[:, None] << 8 | row[None, :]).ravel()
            table = lanes.view(word).ravel()
            table.flags.writeable = False
            tables.append(table)
        groups.append(tuple(tables))
    return tuple(groups)


def gf_matmul(matrix, rows) -> np.ndarray:
    """``matrix @ rows`` over GF(256): the block-sized EC kernel.

    ``matrix`` is an ``(r, c)`` coefficient matrix, ``rows`` a ``(c, n)``
    array or a sequence of ``c`` equal-length 1-D uint8 arrays (any
    alignment, stride or writeability; never modified).  Returns a fresh,
    writable ``(r, n)`` uint8 array: row ``i`` is the XOR over ``j`` of
    ``matrix[i, j] * rows[j]``.
    """
    matrix = np.asarray(matrix, dtype=np.uint8)
    rows = [np.asarray(row, dtype=np.uint8) for row in rows]
    if matrix.ndim != 2 or not rows or matrix.shape[1] != len(rows):
        raise ValueError(
            f"a {matrix.shape} matrix does not multiply {len(rows)} rows"
        )
    r = matrix.shape[0]
    n = rows[0].size
    if any(row.shape != (n,) for row in rows):
        raise ValueError("rows must be 1-D uint8 arrays of one length")
    out = np.empty((r, n), dtype=np.uint8)
    half = n // 2
    # a row as byte pairs; only a strided row needs a copy to be viewed so
    pairs = [np.ascontiguousarray(row[: 2 * half]).view("<u2") for row in rows]
    groups = _pair_tables(r, len(rows), matrix.tobytes())
    for g0, tables in zip(range(0, r, _GROUP), groups):
        word = tables[0].dtype
        acc = np.empty(min(half, _CHUNK), dtype=word)
        tmp = np.empty_like(acc)
        dsts = [row[: 2 * half].view("<u2") for row in out[g0 : g0 + _GROUP]]
        for lo in range(0, half, _CHUNK):
            hi = min(lo + _CHUNK, half)
            a, s = acc[: hi - lo], tmp[: hi - lo]
            # u2 indices cannot leave a 65,536-entry table: "wrap" only skips
            # the bounds pass and the buffered ``out`` of the default mode
            np.take(tables[0], pairs[0][lo:hi], out=a, mode="wrap")
            for table, pair in zip(tables[1:], pairs[1:]):
                np.take(table, pair[lo:hi], out=s, mode="wrap")
                a ^= s
            lanes = a.view("<u2").reshape(hi - lo, word.itemsize // 2)
            for t, dst in enumerate(dsts):
                dst[lo:hi] = lanes[:, t]
    if n % 2:
        last = np.array([row[-1] for row in rows], dtype=np.uint8)
        out[:, -1] = np.bitwise_xor.reduce(_MUL[matrix, last], axis=1)
    return out


def gf_div(a, b) -> np.ndarray:
    """Element-wise division; raises ZeroDivisionError on any zero divisor."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if (b == 0).any():
        raise ZeroDivisionError("division by zero in GF(256)")
    out = _EXP[(_LOG[a] - _LOG[b]) % 255].astype(np.uint8)
    if a.ndim == 0:
        return out if a else np.uint8(0)
    out[a == 0] = 0
    return out


def gf_inv(a: int) -> int:
    """Multiplicative inverse of a nonzero scalar."""
    a = int(a)
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return int(_EXP[255 - _LOG[a]])


def gf_pow(a: int, n: int) -> int:
    """Scalar exponentiation ``a**n`` for ``n >= 0``."""
    a = int(a)
    n = int(n)
    if n < 0:
        raise ValueError("negative exponent")
    if n == 0:
        return 1
    if a == 0:
        return 0
    return int(_EXP[(_LOG[a] * n) % 255])
