"""RS(k, m) encoder/decoder over GF(2^8).

A stripe is k data blocks + m parity blocks, all the same size.  Encoding is
Equation (1); recovery inverts the surviving k rows of the generator matrix.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.common.errors import ConfigError, DecodeError
from repro.ec.matrices import coding_matrix
from repro.gf.field import gf_mul_row, gf_mul_scalar
from repro.gf.matrix import gf_mat_inv, identity

__all__ = ["RSCode"]


class RSCode:
    """A Reed-Solomon code RS(k, m) with a fixed MDS coding matrix.

    Parameters
    ----------
    k:
        number of data blocks per stripe.
    m:
        number of parity blocks per stripe (tolerates any m erasures).
    matrix_kind:
        "cauchy" (default) or "vandermonde".
    """

    def __init__(self, k: int, m: int, matrix_kind: str = "cauchy") -> None:
        if k < 1 or m < 1:
            raise ConfigError(f"RS({k},{m}) requires k, m >= 1")
        self.k = k
        self.m = m
        self.matrix_kind = matrix_kind
        self.coding = coding_matrix(k, m, matrix_kind)  # m x k
        self.generator = np.concatenate([identity(k), self.coding], axis=0)

    # ------------------------------------------------------------------ API
    def encode(self, data_blocks: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Compute the m parity blocks for k equal-sized data blocks."""
        blocks = self._as_block_matrix(data_blocks, self.k)
        return list(self.encode_matrix(blocks))

    def encode_matrix(self, data: np.ndarray) -> np.ndarray:
        """Vectorized encode of a ``(k, n)`` uint8 matrix into ``(m, n)``.

        ``n`` can span many stripes laid side by side: GF arithmetic is
        column-independent, so encoding the concatenation equals
        concatenating per-stripe encodes.  The bulk-populate path uses this
        to amortize coefficient dispatch over a whole file instead of
        paying it per block.  One scratch row is reused for every gather
        (``np.take(..., out=)``), so the only allocation is the output.
        """
        data = np.asarray(data, dtype=np.uint8)
        if data.ndim != 2 or data.shape[0] != self.k:
            raise ConfigError(
                f"expected a ({self.k}, n) data matrix, got {data.shape}"
            )
        n = data.shape[1]
        out = np.zeros((self.m, n), dtype=np.uint8)
        tmp = np.empty(n, dtype=np.uint8)
        for i in range(self.m):
            row = out[i]
            for j in range(self.k):
                coef = int(self.coding[i, j])
                if coef == 0:
                    continue
                if coef == 1:
                    row ^= data[j]
                else:
                    np.take(gf_mul_row(coef), data[j], out=tmp)
                    row ^= tmp
        return out

    def verify(
        self, data_blocks: Sequence[np.ndarray], parity_blocks: Sequence[np.ndarray]
    ) -> bool:
        """True iff the given parities match a fresh encode of the data."""
        expected = self.encode(data_blocks)
        if len(parity_blocks) != self.m:
            return False
        return all(
            np.array_equal(exp, np.asarray(got, dtype=np.uint8))
            for exp, got in zip(expected, parity_blocks)
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
        """
        erased = sorted(set(int(e) for e in erased))
        for idx in erased:
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
        sub = self.generator[use]  # k x k, full rank by MDS property
        inv = gf_mat_inv(sub)

        blocks = self._as_block_matrix([available[i] for i in use], self.k)
        size = blocks.shape[1]

        out: dict[int, np.ndarray] = {}
        # First recover any erased *data* blocks, then re-encode parity rows.
        data_needed = [e for e in erased if e < self.k]
        parity_needed = [e for e in erased if e >= self.k]
        recovered_data: dict[int, np.ndarray] = {}
        for e in data_needed:
            acc = np.zeros(size, dtype=np.uint8)
            for j in range(self.k):
                coef = int(inv[e, j])
                if coef:
                    acc ^= gf_mul_scalar(coef, blocks[j])
            recovered_data[e] = acc
            out[e] = acc
        if parity_needed:
            # Rebuild full data vector (decode missing rows lazily).
            full_data: list[np.ndarray] = []
            for d in range(self.k):
                if d in recovered_data:
                    full_data.append(recovered_data[d])
                elif d in available:
                    full_data.append(np.asarray(available[d], dtype=np.uint8))
                else:
                    acc = np.zeros(size, dtype=np.uint8)
                    for j in range(self.k):
                        coef = int(inv[d, j])
                        if coef:
                            acc ^= gf_mul_scalar(coef, blocks[j])
                    full_data.append(acc)
            parities = self.encode(full_data)
            for e in parity_needed:
                out[e] = parities[e - self.k]
        return out

    # ------------------------------------------------------------- helpers
    @staticmethod
    def _as_block_matrix(blocks: Sequence[np.ndarray], expect: int) -> np.ndarray:
        if len(blocks) != expect:
            raise ConfigError(f"expected {expect} blocks, got {len(blocks)}")
        arrs = [np.asarray(b, dtype=np.uint8) for b in blocks]
        size = arrs[0].shape[-1] if arrs[0].ndim else 0
        for a in arrs:
            if a.ndim != 1:
                raise ConfigError("blocks must be 1-D uint8 arrays")
            if a.shape[0] != size:
                raise ConfigError("all blocks in a stripe must be equal-sized")
        return np.stack(arrs, axis=0)

    def __repr__(self) -> str:
        return f"RSCode(k={self.k}, m={self.m}, kind={self.matrix_kind!r})"
