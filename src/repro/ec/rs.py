"""RS(k, m) encoder/decoder over GF(2^8).

A stripe is k data blocks + m parity blocks, all the same size.  Encoding is
Equation (1); recovery inverts the surviving k rows of the generator matrix.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.common.errors import ConfigError, DecodeError
from repro.ec.matrices import coding_matrix
from repro.gf.field import gf_matmul
from repro.gf.matrix import gf_mat_inv, gf_mat_mul, identity

__all__ = ["RSCode"]


class RSCode:
    """A Reed-Solomon code RS(k, m) with a fixed MDS coding matrix.

    Parameters
    ----------
    k:
        number of data blocks per stripe.
    m:
        number of parity blocks per stripe (tolerates any m erasures).
    """

    def __init__(self, k: int, m: int) -> None:
        if k < 1 or m < 1:
            raise ConfigError(f"RS({k},{m}) requires k, m >= 1")
        self.k = k
        self.m = m
        self.coding = coding_matrix(k, m)  # m x k
        self.generator = np.concatenate([identity(k), self.coding], axis=0)

    # ------------------------------------------------------------------ API
    def encode(self, data_blocks: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Compute the m parity blocks for k equal-sized data blocks."""
        return list(gf_matmul(self.coding, self._checked(data_blocks)))

    def encode_matrix(self, data: np.ndarray) -> np.ndarray:
        """Vectorized encode of a ``(k, n)`` uint8 matrix into ``(m, n)``.

        ``n`` can span many stripes laid side by side: GF arithmetic is
        column-independent, so encoding the concatenation equals
        concatenating per-stripe encodes.  Random-fill populate encodes one
        stripe per call, straight from its ``(k, block_size)`` slice of the
        file's draw; perfbench's ``ec.probe_encode_mbps`` calls this too.
        """
        data = np.asarray(data, dtype=np.uint8)
        if data.ndim != 2 or data.shape[0] != self.k:
            raise ConfigError(
                f"expected a ({self.k}, n) data matrix, got {data.shape}"
            )
        return gf_matmul(self.coding, data)

    def verify(
        self, data_blocks: Sequence[np.ndarray], parity_blocks: Sequence[np.ndarray]
    ) -> bool:
        """True iff the given parities match a fresh encode of the data."""
        if len(parity_blocks) != self.m:
            return False
        return all(
            np.array_equal(exp, np.asarray(got, dtype=np.uint8))
            for exp, got in zip(self.encode(data_blocks), parity_blocks)
        )

    def decode(
        self,
        available: Mapping[int, np.ndarray],
        erased: Iterable[int],
    ) -> dict[int, np.ndarray]:
        """Reconstruct erased blocks.

        ``available`` maps *stripe index* (0..k-1 data, k..k+m-1 parity) to
        block content; ``erased`` lists the stripe indices to rebuild.  Any k
        available blocks suffice.  Returns {index: reconstructed block}.

        One matrix product: inverting the k surviving generator rows gives
        the data from the survivors, so generator row ``e`` times that
        inverse gives block ``e`` from them — ``inv[e]`` for a data block,
        ``coding[e-k] @ inv`` for a parity block.
        """
        erased = sorted(set(int(e) for e in erased))
        for idx in (*erased, *available):
            if not 0 <= idx < self.k + self.m:
                raise DecodeError(f"block index {idx} outside stripe")
        if len(erased) > self.m:
            raise DecodeError(
                f"{len(erased)} erasures exceed fault tolerance m={self.m}"
            )
        if not erased:
            return {}
        avail_idx = [i for i in sorted(available) if i not in erased]
        if len(avail_idx) < self.k:
            raise DecodeError(
                f"only {len(avail_idx)} surviving blocks, need k={self.k}"
            )
        use = avail_idx[: self.k]
        inv = gf_mat_inv(self.generator[use])  # k x k, full rank by MDS property
        rebuilt = gf_matmul(
            gf_mat_mul(self.generator[erased], inv),
            self._checked([available[i] for i in use]),
        )
        return dict(zip(erased, rebuilt))

    # ------------------------------------------------------------- helpers
    def _checked(self, blocks: Sequence[np.ndarray]) -> list[np.ndarray]:
        """``blocks`` as uint8 arrays, once they are k equal-sized 1-D blocks."""
        if len(blocks) != self.k:
            raise ConfigError(f"expected {self.k} blocks, got {len(blocks)}")
        arrs = [np.asarray(b, dtype=np.uint8) for b in blocks]
        if any(a.ndim != 1 for a in arrs):
            raise ConfigError("blocks must be 1-D uint8 arrays")
        if any(a.shape != arrs[0].shape for a in arrs):
            raise ConfigError("all blocks in a stripe must be equal-sized")
        return arrs

    def __repr__(self) -> str:
        return f"RSCode(k={self.k}, m={self.m})"
