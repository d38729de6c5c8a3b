"""Scalar and vectorized GF(2^8) field operations.

The field is built over the primitive polynomial x^8+x^4+x^3+x^2+1 (0x11d),
the same polynomial used by ISA-L / jerasure.  A full 256x256 multiplication
table (64 KiB) is precomputed at import so the erasure-coding hot path —
multiplying a whole data block by one coefficient — is a single fancy-index
``table[coef][data]`` with no branching and no temporaries beyond the output.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GF_ORDER",
    "PRIMITIVE_POLY",
    "gf_exp_table",
    "gf_log_table",
    "gf_add",
    "gf_mul",
    "gf_mul_scalar",
    "gf_mul_row",
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


def gf_exp_table() -> np.ndarray:
    """Read-only exp table (length 512, doubled to skip the mod-255)."""
    view = _EXP.view()
    view.flags.writeable = False
    return view


def gf_log_table() -> np.ndarray:
    """Read-only log table (length 256; ``log[0]`` is undefined and set to 0)."""
    view = _LOG.view()
    view.flags.writeable = False
    return view


def gf_add(a, b) -> np.ndarray:
    """Addition == subtraction == XOR in GF(2^8)."""
    return np.bitwise_xor(np.asarray(a, dtype=np.uint8), np.asarray(b, dtype=np.uint8))


def gf_mul(a, b) -> np.ndarray:
    """Element-wise product of uint8 arrays/scalars (numpy broadcasting)."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    return _MUL[a, b]


def gf_mul_scalar(coef: int, data) -> np.ndarray:
    """Multiply a data array by one field scalar — the EC hot path.

    ``np.take`` over the precomputed row beats fancy indexing ~2x for the
    block-sized gathers this path performs.
    """
    coef = int(coef)
    if not 0 <= coef < 256:
        raise ValueError(f"coefficient {coef} outside GF(256)")
    data = np.asarray(data, dtype=np.uint8)
    if coef == 0:
        return np.zeros_like(data)
    if coef == 1:
        return data.copy()
    return np.take(_MUL[coef], data)


def gf_mul_row(coef: int) -> np.ndarray:
    """Read-only multiplication-table row for ``coef``.

    Batched encode kernels gather through the row themselves
    (``np.take(row, data, out=tmp)``) to reuse a preallocated output
    instead of paying one temporary per coefficient like
    :func:`gf_mul_scalar`.
    """
    coef = int(coef)
    if not 0 <= coef < 256:
        raise ValueError(f"coefficient {coef} outside GF(256)")
    row = _MUL[coef].view()
    row.flags.writeable = False
    return row


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
