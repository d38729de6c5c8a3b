"""Pluggable placement subsystem: policies, topology, epochs, rebalancing.

* :mod:`repro.placement.base` — the :class:`PlacementPolicy` interface;
* :mod:`repro.placement.rotation` — the seed's hash-rotation layout
  (byte-compatible with the seed tree's layout);
* :mod:`repro.placement.crush` — CRUSH-style straw2 weighted selection
  over a :class:`Topology` of racks/hosts/OSDs;
* :mod:`repro.placement.epoch` — the epoch-aware :class:`PlacementMap`
  the cluster consults (ideal homes + actual-home remaps);
* :mod:`repro.placement.planner` — :class:`MigrationPlanner` diffs two
  epochs into per-block move ops;
* :mod:`repro.placement.rebalancer` — background migration at a
  bandwidth cap while updates keep flowing.
"""

from repro.placement.base import PlacementPolicy, mix
from repro.placement.crush import CrushPolicy
from repro.placement.epoch import PlacementMap
from repro.placement.planner import MigrationPlan, MigrationPlanner, MoveOp
from repro.placement.rebalancer import RebalanceReport, Rebalancer
from repro.placement.rotation import RotationPolicy
from repro.placement.topology import Device, Topology

__all__ = [
    "PlacementPolicy",
    "mix",
    "RotationPolicy",
    "CrushPolicy",
    "Device",
    "Topology",
    "PlacementMap",
    "MigrationPlan",
    "MigrationPlanner",
    "MoveOp",
    "RebalanceReport",
    "Rebalancer",
    "POLICIES",
    "make_policy",
]

#: registered policy names (``ClusterConfig.placement_policy``)
POLICIES = ("rotation", "crush")


def make_policy(name: str, topology: Topology, k: int, m: int) -> PlacementPolicy:
    """Build a fresh policy instance from the topology's current state.

    Called once at cluster build and again on every epoch advance — the
    returned instance snapshots the topology and is treated as immutable.
    """
    if name == "rotation":
        active = [d.osd for d in topology.devices()]
        return RotationPolicy(len(active), k, m, active=active)
    if name == "crush":
        return CrushPolicy(topology, k, m)
    raise ValueError(f"unknown placement policy {name!r}; known: {POLICIES}")
