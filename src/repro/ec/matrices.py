"""The coding matrix for RS(k, m).

A *coding matrix* here is the ``m x k`` matrix of Equation (1) mapping the
k data blocks to the m parity blocks.  Any k rows of the stacked
``(I_k ; C)`` generator must be invertible, which the Cauchy construction
guarantees for every geometry GF(256) can hold.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigError
from repro.gf.field import GF_ORDER, gf_inv

__all__ = ["cauchy_matrix", "coding_matrix"]


def cauchy_matrix(k: int, m: int) -> np.ndarray:
    """m x k Cauchy matrix: C[i, j] = 1 / (x_i + y_j), MDS by construction."""
    _validate(k, m)
    xs = np.arange(k, k + m, dtype=np.int32)
    ys = np.arange(k, dtype=np.int32)
    mat = np.zeros((m, k), dtype=np.uint8)
    for i in range(m):
        for j in range(k):
            mat[i, j] = gf_inv(int(xs[i]) ^ int(ys[j]))
    return mat


def coding_matrix(k: int, m: int) -> np.ndarray:
    """Return the MDS m x k coding matrix: the Cauchy one."""
    return cauchy_matrix(k, m)


def _validate(k: int, m: int) -> None:
    if k < 1 or m < 1:
        raise ConfigError(f"RS({k},{m}): k and m must be >= 1")
    if k + m > GF_ORDER:
        raise ConfigError(f"RS({k},{m}): k+m must be <= {GF_ORDER} over GF(256)")
