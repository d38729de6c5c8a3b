"""Incremental (delta-based) parity update math — Equation (2).

Both functions operate on 1-D uint8 numpy arrays representing the *updated
byte range*, not whole blocks.  The merges of Eqs. (3)-(5) happen where the
deltas are logged: in the log index (:mod:`repro.core.intervals`) and in
TSUE's DeltaLog recycle plan (:mod:`repro.update.tsue`).
"""

from __future__ import annotations

import numpy as np

from repro.gf.field import gf_mul_scalar

__all__ = ["data_delta", "parity_delta"]


def data_delta(new_data: np.ndarray, old_data: np.ndarray) -> np.ndarray:
    """Eq. (2) inner term: ``D' - D`` (XOR in GF(2^8))."""
    new_data = np.asarray(new_data, dtype=np.uint8)
    old_data = np.asarray(old_data, dtype=np.uint8)
    if new_data.shape != old_data.shape:
        raise ValueError(
            f"delta shapes differ: {new_data.shape} vs {old_data.shape}"
        )
    return new_data ^ old_data


def parity_delta(coef: int, delta: np.ndarray) -> np.ndarray:
    """Eq. (2): parity delta ``a_ij * (D' - D)`` for one parity block."""
    return gf_mul_scalar(coef, delta)
