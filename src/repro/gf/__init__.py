"""GF(2^8) arithmetic and matrix algebra.

Vectorized over numpy ``uint8`` arrays via exp/log tables (the standard
0x11d primitive polynomial).  This is the arithmetic substrate for the
Reed-Solomon coder in :mod:`repro.ec`.
"""

from repro.gf.field import (
    GF_ORDER,
    PRIMITIVE_POLY,
    gf_div,
    gf_inv,
    gf_matmul,
    gf_mul,
    gf_mul_scalar,
    gf_pow,
)
from repro.gf.matrix import (
    gf_mat_inv,
    gf_mat_mul,
    gf_mat_rank,
    identity,
)

__all__ = [
    "GF_ORDER",
    "PRIMITIVE_POLY",
    "gf_div",
    "gf_inv",
    "gf_matmul",
    "gf_mul",
    "gf_mul_scalar",
    "gf_pow",
    "gf_mat_inv",
    "gf_mat_mul",
    "gf_mat_rank",
    "identity",
]
