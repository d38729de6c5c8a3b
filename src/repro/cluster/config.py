"""Cluster-wide configuration and the CPU cost model."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.background.config import BackgroundConfig
from repro.common.errors import ConfigError
from repro.common.units import MiB

__all__ = ["CPUCosts", "ClusterConfig"]


@dataclass(frozen=True)
class CPUCosts:
    """Per-byte compute charges for the DES (vectorized-GF-on-CPU class).

    These make computation *visible* but small relative to I/O, as on the
    paper's testbed (SIMD GF multiply runs at several GB/s per core).
    Rates are in seconds; a charge is rounded to µs once, at the end.
    """

    xor_per_byte: float = 0.1e-9
    gf_mul_per_byte: float = 0.4e-9
    op_fixed: float = 1.0e-6  # request handling / context switching

    def xor(self, nbytes: int) -> int:
        """µs to XOR ``nbytes``."""
        return round((self.op_fixed + nbytes * self.xor_per_byte) * 1e6)

    def gf_mul(self, nbytes: int, terms: int = 1, times: int = 1) -> int:
        """µs for ``times`` multiplies of ``nbytes`` by ``terms`` coefficients."""
        one = self.op_fixed + nbytes * self.gf_mul_per_byte * max(1, terms)
        return round(one * times * 1e6)


@dataclass
class ClusterConfig:
    """Geometry + sizing for one ECFS deployment."""

    n_osds: int = 16
    k: int = 6
    m: int = 4
    block_size: int = 1 * MiB
    device: str = "ssd"  # "ssd" | "hdd"
    # placement: policy + failure-domain topology (repro.placement)
    placement_policy: str = "rotation"  # "rotation" | "crush"
    osds_per_host: int = 1
    hosts_per_rack: int = 4
    failure_domain: str = "host"  # "host" | "rack"
    # TSUE log sizing (per pool); §5.3.2: unit 16 MiB, 2..20 units, 4 pools
    log_unit_size: int = 4 * MiB
    log_max_units: int = 4
    log_pools: int = 4
    # deferred-recycle watermarks (PL-style node-wide logs): recycling is
    # triggered when a node's log passes the high watermark and drains it
    # back below the low one.  Formerly a module constant in repro.update.pl
    # (the config-drift fix); the defaults are large enough that bounded
    # experiment runs never trigger, matching the historical behavior.
    recycle_high_watermark: int = 1 << 30
    recycle_low_watermark: int = 1 << 29
    # unified background-work scheduler (repro.background): disabled by
    # default — the four maintenance streams then pace themselves exactly
    # as they historically did
    background: BackgroundConfig = field(default_factory=BackgroundConfig)
    # control-plane message sizes
    header_bytes: int = 200
    ack_bytes: int = 64
    costs: CPUCosts = field(default_factory=CPUCosts)
    seed: int = 2025

    def validate(self) -> None:
        if self.n_osds < self.k + self.m:
            raise ConfigError(
                f"{self.n_osds} OSDs cannot host RS({self.k},{self.m}) stripes "
                f"({self.k + self.m} distinct nodes required)"
            )
        if self.block_size <= 0:
            raise ConfigError("block_size must be positive")
        if self.device not in ("ssd", "hdd"):
            raise ConfigError(f"unknown device kind {self.device!r}")
        if self.log_unit_size <= 0 or self.log_pools < 1:
            raise ConfigError("invalid log sizing")
        if self.placement_policy not in ("rotation", "crush"):
            raise ConfigError(
                f"unknown placement policy {self.placement_policy!r}"
            )
        if self.failure_domain not in ("host", "rack"):
            raise ConfigError(f"unknown failure domain {self.failure_domain!r}")
        if self.osds_per_host < 1 or self.hosts_per_rack < 1:
            raise ConfigError("invalid topology sizing")
        if not 0 < self.recycle_low_watermark <= self.recycle_high_watermark:
            raise ConfigError(
                "recycle watermarks must satisfy 0 < low <= high "
                f"(got low={self.recycle_low_watermark}, "
                f"high={self.recycle_high_watermark})"
            )
        try:
            self.background.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
