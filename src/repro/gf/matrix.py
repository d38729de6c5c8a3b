"""GF(2^8) matrix algebra: multiply, invert, rank.

Matrices are 2-D ``uint8`` numpy arrays.  Inversion is Gauss-Jordan with
partial "pivoting" (any nonzero pivot works in a field).  These routines run
on k x k decode matrices (k <= 128 in practice), so clarity beats micro-
optimization here; block-sized data goes through :func:`repro.gf.field.gf_matmul`
(a coefficient matrix times whole blocks — :func:`gf_mat_mul` is the reference
its tests compare against) and :func:`repro.gf.field.gf_mul_scalar` (one
coefficient times a delta).
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import DecodeError
from repro.gf.field import gf_div, gf_mul

__all__ = ["identity", "gf_mat_mul", "gf_mat_inv", "gf_mat_rank"]


def identity(n: int) -> np.ndarray:
    """n x n identity over GF(256)."""
    return np.eye(n, dtype=np.uint8)


def gf_mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(256).

    Implemented as XOR-accumulation of scalar-row products; vectorized along
    the columns of ``b``.
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for i in range(a.shape[0]):
        acc = np.zeros(b.shape[1], dtype=np.uint8)
        row = a[i]
        for j in range(a.shape[1]):
            if row[j]:
                acc ^= gf_mul(np.uint8(row[j]), b[j])
        out[i] = acc
    return out


def gf_mat_inv(a: np.ndarray) -> np.ndarray:
    """Invert a square GF(256) matrix; raises DecodeError if singular."""
    a = np.asarray(a, dtype=np.uint8)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got {a.shape}")
    n = a.shape[0]
    aug = np.concatenate([a.copy(), identity(n)], axis=1)
    for col in range(n):
        pivot_row = -1
        for row in range(col, n):
            if aug[row, col]:
                pivot_row = row
                break
        if pivot_row < 0:
            raise DecodeError(f"singular matrix (rank < {n}) — cannot decode")
        if pivot_row != col:
            aug[[col, pivot_row]] = aug[[pivot_row, col]]
        pivot = aug[col, col]
        if pivot != 1:
            aug[col] = gf_div(aug[col], np.uint8(pivot))
        for row in range(n):
            if row != col and aug[row, col]:
                aug[row] ^= gf_mul(np.uint8(aug[row, col]), aug[col])
    return aug[:, n:].copy()


def gf_mat_rank(a: np.ndarray) -> int:
    """Rank of a GF(256) matrix (row echelon elimination)."""
    a = np.asarray(a, dtype=np.uint8).copy()
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        pivot_row = -1
        for row in range(rank, rows):
            if a[row, col]:
                pivot_row = row
                break
        if pivot_row < 0:
            continue
        a[[rank, pivot_row]] = a[[pivot_row, rank]]
        a[rank] = gf_div(a[rank], np.uint8(a[rank, col]))
        for row in range(rows):
            if row != rank and a[row, col]:
                a[row] ^= gf_mul(np.uint8(a[row, col]), a[rank])
        rank += 1
        if rank == rows:
            break
    return rank
