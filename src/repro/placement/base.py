"""Placement policy interface.

A :class:`PlacementPolicy` is a pure function from block identity to node
index: given one policy instance, ``osd_of`` (and friends) always return the
same answer, so results are memoizable and cross-process deterministic.  The
cluster never calls a policy directly — it goes through
:class:`repro.placement.epoch.PlacementMap`, which layers epoch bookkeeping
and per-block remaps (recovery re-homes, in-flight migrations) on top.

Policy instances are **immutable by contract**: a topology change never
mutates an existing policy, it builds a fresh one and advances the map's
epoch.  That is what makes the per-instance memo caches below safe — a
cache entry can only ever go stale if someone mutates a live policy, and
nobody does (the old instance is dropped with its cache at the epoch bump).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from abc import ABC, abstractmethod


if TYPE_CHECKING:  # pragma: no cover - type-only (avoids a package cycle)
    from repro.cluster.ids import BlockId

__all__ = ["PlacementPolicy", "mix"]

_HASH_MIX = 0x9E3779B97F4A7C15


def mix(*values: int) -> int:
    """Stable 64-bit integer hash (independent of PYTHONHASHSEED)."""
    h = 0
    for v in values:
        h ^= (v + _HASH_MIX + (h << 6) + (h >> 2)) & 0xFFFFFFFFFFFFFFFF
    return h


class PlacementPolicy(ABC):
    """Pure function (config) -> node index for every block and replica."""

    name = "base"

    def __init__(self, k: int, m: int) -> None:
        self.k = k
        self.m = m
        # placement is a pure function of the block id, and the hot paths
        # resolve the same few thousand blocks millions of times: memoize.
        # Caches are per-instance; a new epoch means a new instance.
        self._osd_cache: dict[BlockId, int] = {}

    # ------------------------------------------------------------------ API
    @property
    @abstractmethod
    def n_osds(self) -> int:
        """Number of placement targets this policy can choose from."""

    @abstractmethod
    def stripe_osds(self, file_id: int, stripe: int) -> list[int]:
        """The ``k+m`` node indices hosting the stripe, in block-idx order."""

    @abstractmethod
    def replica_osd(self, block: BlockId) -> int:
        """Node hosting the DataLog replica for a data block — outside the
        stripe's span whenever the cluster is wide enough."""

    def osd_of(self, block: BlockId) -> int:
        """Node index hosting ``block``."""
        idx = self._osd_cache.get(block)
        if idx is None:
            if not 0 <= block.idx < self.k + self.m:
                raise ValueError(f"block idx {block.idx} outside stripe width")
            idx = self.stripe_osds(block.file_id, block.stripe)[block.idx]
            self._osd_cache[block] = idx
        return idx
