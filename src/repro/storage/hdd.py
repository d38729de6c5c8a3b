"""HDD timing model: seek + rotational latency for random access.

Used for the paper's §5.4 HDD-cluster experiments (Fig. 8).  The random/
sequential gap on disks is one to two orders of magnitude, which is why the
paper drops the DeltaLog layer there and leans harder on sequential logging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.sim import Environment
from repro.storage.base import IOKind, IORequest, StorageDevice

__all__ = ["HDDParams", "HDDevice"]


@dataclass(frozen=True)
class HDDParams:
    """7200rpm-class 2TB drive."""

    seq_bw: float = 180e6  # bytes/s sustained
    avg_seek: float = 8e-3  # seconds
    avg_rotation: float = 4.17e-3  # half a revolution at 7200rpm
    seq_cmd_overhead: float = 50e-6
    capacity: int = 2_000_000_000_000

    def validate(self) -> None:
        if self.seq_bw <= 0:
            raise ValueError("bandwidth must be positive")
        if min(self.avg_seek, self.avg_rotation, self.seq_cmd_overhead) < 0:
            raise ValueError("latencies must be non-negative")


class HDDevice(StorageDevice):
    """A spinning disk: single actuator (one channel), seek-dominated random I/O."""

    def __init__(
        self, env: Environment, name: str = "hdd", params: HDDParams | None = None
    ) -> None:
        self.params = params or HDDParams()
        self.params.validate()
        super().__init__(env, name, channels=1)
        # the timing model in µs: the params converted once, here
        p = self.params
        self._us_per_byte = 1e6 / p.seq_bw
        self._seq_cmd_us = p.seq_cmd_overhead * 1e6
        self._rand_us = (p.avg_seek + p.avg_rotation) * 1e6

    def _service_time_us(self, req: IORequest, sequential: bool) -> int:
        transfer = req.size * self._us_per_byte
        if sequential:
            return round(self._seq_cmd_us + transfer)
        return round(self._rand_us + transfer)

    def _service_times_us(
        self, reqs: Sequence[IORequest], seqs: Sequence[bool]
    ) -> list[int]:
        n = len(reqs)
        if n < 4:  # numpy setup outweighs the loop for tiny batches
            return [self._service_time_us(r, s) for r, s in zip(reqs, seqs)]
        sizes = np.fromiter((r.size for r in reqs), dtype=np.float64, count=n)
        cmds = np.where(np.fromiter(seqs, dtype=bool, count=n),
                        self._seq_cmd_us, self._rand_us)
        # same op order and half-to-even rounding as _service_time_us
        return np.rint(cmds + sizes * self._us_per_byte).astype(np.int64).tolist()
