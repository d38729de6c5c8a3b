"""TSUE core: the paper's primary contribution.

Data structures and policies of the two-stage update method:

* :mod:`repro.core.intervals` — extent maps with the two merge policies the
  three log layers need (latest-wins overwrite for DataLog, XOR composition
  for DeltaLog/ParityLog), plus adjacency coalescing; an insert merges and
  coalesces in one splice,
* :mod:`repro.core.index` — the two-level index (block hash map -> offset-
  sorted extents) with the per-block page bitmap, always on (§3.3.1),
* :mod:`repro.core.logunit` — fixed-size log units with the EMPTY /
  RECYCLABLE / RECYCLING / RECYCLED lifecycle and residence-time tracking,
* :mod:`repro.core.logpool` — the FIFO log-pool with a dynamic unit quota,
  backpressure on appends, and read-cache lookups (§3.2),
* :mod:`repro.core.recycler` — the per-block-affinity recycle scheduler.

The cluster-facing TSUE update method (:class:`repro.update.tsue.TSUE`)
composes these into the DataLog → DeltaLog → ParityLog pipeline.
"""

from repro.core.intervals import Extent, ExtentMap, MergePolicy
from repro.core.index import TwoLevelIndex
from repro.core.logunit import LogUnit, LogUnitState
from repro.core.logpool import LogPool
from repro.core.recycler import RecyclePlanner

__all__ = [
    "Extent",
    "ExtentMap",
    "MergePolicy",
    "TwoLevelIndex",
    "LogUnit",
    "LogUnitState",
    "LogPool",
    "RecyclePlanner",
]
