"""CRUSH-style placement: hierarchical straw2 weighted selection.

Each stripe position is mapped independently: every candidate draws a
straw ``ln(u) / weight`` (``u`` a stable per-(stripe, position, candidate)
hash in ``(0, 1]``) and the longest straw wins — Ceph's straw2 bucket.
Because each candidate's draw depends only on its own identity and weight,
adding, removing, or reweighting a device perturbs only the positions that
device wins or loses: the expected data movement of a change is its weight
fraction of the cluster, not a full reshuffle (the property the
:class:`~repro.placement.planner.MigrationPlanner` asserts).

Selection is hierarchical when the topology has at least ``k+m`` failure
domains: straw2 first picks ``k+m`` distinct domains (weight = sum of the
domain's device weights), then one device inside each domain (salted by the
domain id, not the position, so a domain keeps its device choice even when
its position in the stripe shifts).  With fewer domains than the stripe is
wide, selection falls back to distinct devices — stripes then share
domains, which is exactly what a too-small cluster forces.

Distinctness makes movement slightly super-minimal: a collision retry
chain can re-resolve differently when membership changes, so a join moves
``~1/n`` plus a cascade term that grows with the stripe-width-to-cluster
ratio (real CRUSH has the same overshoot).  Keep ``(k+m)/n`` at or below
~0.5 — as production EC clusters do — and a single join stays within the
``1.5/n`` minimal-movement bound the planner asserts.

A policy instance snapshots the topology at construction and never sees
later mutations: topology events build a *new* policy and advance the
placement epoch (see :mod:`repro.placement.epoch`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import math

from repro.placement.base import PlacementPolicy, mix
from repro.placement.topology import Topology

if TYPE_CHECKING:  # pragma: no cover - type-only (avoids a package cycle)
    from repro.cluster.ids import BlockId

__all__ = ["CrushPolicy"]

# hash salts so domain picks, device picks, and replica picks never collide
_SALT_DOMAIN = 0xD0A1
_SALT_DEVICE = 0xDE71
_SALT_FLAT = 0xF1A7
_SALT_REPLICA = 0x5EB1
#: straw2 retry budget per position before a deterministic fallback
_MAX_ATTEMPTS = 64

_TWO64 = float(1 << 64)
_M64 = 0xFFFFFFFFFFFFFFFF


def _finalize(x: int) -> int:
    """splitmix64 finalizer: full avalanche over ``mix``'s fold (straw2's
    top-of-order statistics are sensitive to weak low-bit diffusion)."""
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


class CrushPolicy(PlacementPolicy):
    """Weighted, failure-domain-aware placement over a topology snapshot."""

    name = "crush"

    def __init__(self, topology: Topology, k: int, m: int) -> None:
        devices = topology.devices()
        if len(devices) < k + m:
            raise ValueError("need at least k+m devices in the topology")
        super().__init__(k, m)
        self.failure_domain = topology.failure_domain
        #: immutable snapshot: [(osd, weight)] sorted by osd id
        self._devs: tuple[tuple[int, float], ...] = tuple(
            (d.osd, d.weight) for d in devices
        )
        by_domain: dict[int, list[tuple[int, float]]] = {}
        for d in devices:
            by_domain.setdefault(topology.domain_of(d.osd), []).append(
                (d.osd, d.weight)
            )
        #: [(domain id, ((osd, weight), ...))] sorted by domain id
        self._domains: tuple[tuple[int, tuple[tuple[int, float], ...]], ...] = tuple(
            (dom, tuple(items)) for dom, items in sorted(by_domain.items())
        )
        self._domain_weights: tuple[tuple[int, float], ...] = tuple(
            (dom, sum(w for _o, w in items)) for dom, items in self._domains
        )
        self._domain_devs = dict(self._domains)
        self._stripe_cache: dict[tuple[int, int], list[int]] = {}

    @property
    def n_osds(self) -> int:
        return len(self._devs)

    # --------------------------------------------------------------- straw2
    @staticmethod
    def _straw2(seed: int, salt: int, items) -> int:
        """Longest-straw winner among ``(ident, weight)`` items."""
        best = -1
        best_draw = -math.inf
        for ident, weight in items:
            u = (_finalize(mix(seed, salt, ident)) + 1) / _TWO64  # in (0, 1]
            draw = math.log(u) / weight
            if draw > best_draw or (draw == best_draw and ident < best):
                best = ident
                best_draw = draw
        return best

    def _pick_distinct(self, seed: int, salt: int, items, width: int) -> list[int]:
        """``width`` distinct winners, one straw2 contest per position.

        Each position's first attempt is independent of every other
        position, so a membership change only disturbs positions the
        changed candidate wins — collisions retry with a fresh salt."""
        chosen: list[int] = []
        taken: set[int] = set()
        for pos in range(width):
            pick = -1
            for attempt in range(_MAX_ATTEMPTS):
                cand = self._straw2(seed, mix(salt, pos, attempt), items)
                if cand not in taken:
                    pick = cand
                    break
            if pick < 0:  # pathological hash streak: deterministic fallback
                pick = next(i for i, _w in items if i not in taken)
            chosen.append(pick)
            taken.add(pick)
        return chosen

    # ------------------------------------------------------------------ API
    def stripe_osds(self, file_id: int, stripe: int) -> list[int]:
        key = (file_id, stripe)
        osds = self._stripe_cache.get(key)
        if osds is None:
            seed = mix(file_id, stripe)
            width = self.k + self.m
            if len(self._domains) >= width:
                domains = self._pick_distinct(
                    seed, _SALT_DOMAIN, self._domain_weights, width
                )
                osds = [
                    self._straw2(seed, mix(_SALT_DEVICE, dom), self._domain_devs[dom])
                    for dom in domains
                ]
            else:
                osds = self._pick_distinct(seed, _SALT_FLAT, self._devs, width)
            self._stripe_cache[key] = osds
        return osds

    def replica_osd(self, block: BlockId) -> int:
        """Straw2 winner among devices outside the stripe (falling back to
        any other device when the stripe covers the whole cluster)."""
        used = set(self.stripe_osds(block.file_id, block.stripe))
        seed = mix(block.file_id, block.stripe)
        outside = [(o, w) for o, w in self._devs if o not in used]
        if outside:
            return self._straw2(seed, mix(_SALT_REPLICA, block.idx), outside)
        home = self.osd_of(block)
        others = [(o, w) for o, w in self._devs if o != home]
        return self._straw2(seed, mix(_SALT_REPLICA, block.idx), others)
