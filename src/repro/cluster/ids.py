"""Block identity within the striped namespace.

A file is a sequence of stripes; stripe ``s`` holds ``k`` data blocks
(indices 0..k-1) and ``m`` parity blocks (indices k..k+m-1).  A
:class:`BlockId` is the triple the paper hashes to choose log pools:
(inode number, stripe number, block number).
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["BlockId"]


class BlockId(NamedTuple):
    file_id: int
    stripe: int
    idx: int  # 0..k-1 data, k..k+m-1 parity

    def __str__(self) -> str:
        return f"f{self.file_id}.s{self.stripe}.b{self.idx}"

