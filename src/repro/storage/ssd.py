"""SSD timing model with a calibrated sequential/random gap and flash wear.

The model follows the paper's premise (§2.3.1): on NAND SSDs random
small-grained I/O pays a per-command latency several times the sequential
per-byte cost, and the gap widens under load (served here by queueing on the
device's channels).  Defaults approximate a 400 GB datacenter SATA/NVMe-lite
device like the Chameleon nodes'.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim import Environment
from repro.storage.base import IOKind, IORequest, StorageDevice
from repro.storage.wear import FlashWearModel

__all__ = ["SSDParams", "SSDevice"]


@dataclass(frozen=True)
class SSDParams:
    """Latency/bandwidth parameters (seconds, bytes/second)."""

    seq_read_bw: float = 2.0e9
    seq_write_bw: float = 1.2e9
    rand_read_lat: float = 80e-6  # per-command random 4K read
    rand_write_lat: float = 100e-6  # per-command random 4K write
    seq_cmd_overhead: float = 8e-6  # per-command cost on a sequential stream
    channels: int = 4  # SATA-era 400 GB datacenter device
    capacity: int = 400_000_000_000

    def validate(self) -> None:
        if min(self.seq_read_bw, self.seq_write_bw) <= 0:
            raise ValueError("bandwidths must be positive")
        if min(self.rand_read_lat, self.rand_write_lat, self.seq_cmd_overhead) < 0:
            raise ValueError("latencies must be non-negative")
        if self.channels < 1:
            raise ValueError("channels must be >= 1")


class SSDevice(StorageDevice):
    """An SSD: queued channels, seq/random service times, NAND wear."""

    def __init__(
        self,
        env: Environment,
        name: str = "ssd",
        params: SSDParams | None = None,
        wear: FlashWearModel | None = None,
    ) -> None:
        self.params = params or SSDParams()
        self.params.validate()
        super().__init__(env, name, channels=self.params.channels)
        self.wear = wear or FlashWearModel()
        # the timing model in µs: the params converted once, here
        p = self.params
        self._us_rd_per_byte = 1e6 / p.seq_read_bw
        self._us_wr_per_byte = 1e6 / p.seq_write_bw
        self._seq_cmd_us = p.seq_cmd_overhead * 1e6
        self._rand_rd_us = p.rand_read_lat * 1e6
        self._rand_wr_us = p.rand_write_lat * 1e6

    def _service_time_us(self, req: IORequest, sequential: bool) -> int:
        if req.kind is IOKind.READ:
            cmd = self._seq_cmd_us if sequential else self._rand_rd_us
            return round(cmd + req.size * self._us_rd_per_byte)
        cmd = self._seq_cmd_us if sequential else self._rand_wr_us
        return round(cmd + req.size * self._us_wr_per_byte)

    def _account(self, req: IORequest, sequential: bool, service: float) -> None:
        super()._account(req, sequential, service)
        if req.kind is IOKind.WRITE:
            self.wear.record_write(
                req.size,
                sequential=sequential,
                overwrite=req.overwrite,
                stream=req.stream,
            )
