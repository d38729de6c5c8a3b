"""Reed-Solomon erasure coding and incremental (delta) update math.

Implements Equation (1) of the paper (parity generation via a GF(256)
coding matrix), erasure recovery via matrix inversion, and the incremental
update identity Eq. (2), ``P' = P + a_ij * (D' - D)`` — a single parity
delta.  Repeated updates at one address collapse to the latest (Eqs. 3/4)
in the log index, and deltas of several data blocks at one stripe offset
merge into one parity delta per parity block (Eq. 5) in TSUE's recycle.
"""

from repro.ec.matrices import cauchy_matrix, coding_matrix, vandermonde_matrix
from repro.ec.rs import RSCode
from repro.ec.incremental import data_delta, parity_delta

__all__ = [
    "RSCode",
    "cauchy_matrix",
    "coding_matrix",
    "vandermonde_matrix",
    "data_delta",
    "parity_delta",
]
