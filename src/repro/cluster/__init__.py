"""ECFS — the erasure-coded cluster file system substrate (§4).

Actors (MDS, OSDs, clients) live on one DES :class:`~repro.sim.Environment`
and exchange bytes through a :class:`~repro.net.NetworkFabric`.  Update
semantics are pluggable per :mod:`repro.update` method.
"""

from repro.cluster.ids import BlockId
from repro.cluster.config import CPUCosts, ClusterConfig
from repro.cluster.mds import MDS
from repro.cluster.osd import OSD
from repro.cluster.client import Client, UpdateOp
from repro.cluster.ecfs import ECFS
from repro.cluster.verify import GroundTruth
from repro.cluster.recovery import RecoveryManager, RecoveryReport
from repro.cluster.degraded import degraded_read
from repro.cluster.heartbeat import HeartbeatService

__all__ = [
    "BlockId",
    "CPUCosts",
    "ClusterConfig",
    "MDS",
    "OSD",
    "Client",
    "UpdateOp",
    "ECFS",
    "GroundTruth",
    "RecoveryManager",
    "RecoveryReport",
    "degraded_read",
    "HeartbeatService",
]
