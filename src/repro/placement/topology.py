"""Cluster topology: racks > hosts > OSDs, with per-device weights.

The :class:`Topology` is the *mutable* description of what hardware exists;
placement policies take an immutable snapshot of it at construction.  Hosts
and racks are plain integers so every hash involved in placement is over
stable ints (no string hashing, no ``PYTHONHASHSEED`` sensitivity).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

__all__ = ["Device", "Topology"]


@dataclass(frozen=True)
class Device:
    """One OSD's position in the failure-domain tree."""

    osd: int
    weight: float
    host: int
    rack: int


class Topology:
    """Rack/host/OSD tree; placement-relevant state for CRUSH-style policies."""

    def __init__(self, failure_domain: str = "host") -> None:
        if failure_domain not in ("host", "rack"):
            raise ValueError(f"unknown failure domain {failure_domain!r}")
        self.failure_domain = failure_domain
        self._devices: dict[int, Device] = {}

    # --------------------------------------------------------- construction
    @classmethod
    def flat(
        cls,
        n_osds: int,
        osds_per_host: int = 1,
        hosts_per_rack: int = 4,
        failure_domain: str = "host",
    ) -> "Topology":
        """Regular topology: OSD ``i`` on host ``i // osds_per_host``, hosts
        packed ``hosts_per_rack`` to a rack."""
        if osds_per_host < 1 or hosts_per_rack < 1:
            raise ValueError("need osds_per_host >= 1 and hosts_per_rack >= 1")
        topo = cls(failure_domain)
        for i in range(n_osds):
            host = i // osds_per_host
            topo.add_osd(i, weight=1.0, host=host, rack=host // hosts_per_rack)
        return topo

    # ------------------------------------------------------------ mutation
    def add_osd(
        self,
        osd: int,
        weight: float = 1.0,
        host: Optional[int] = None,
        rack: Optional[int] = None,
    ) -> Device:
        """Register a device.  Without an explicit ``host`` the OSD gets a
        fresh host of its own (a new failure domain), placed in the least
        populated rack (lowest id on ties) — the deterministic default for
        an elastic join."""
        if osd in self._devices:
            raise ValueError(f"osd {osd} already in topology")
        if weight <= 0:
            raise ValueError("device weight must be positive")
        if host is None:
            host = max((d.host for d in self._devices.values()), default=-1) + 1
        if rack is None:
            existing = list(self._devices.values())
            same_host = [d for d in existing if d.host == host]
            if same_host:
                rack = same_host[0].rack
            elif existing:
                hosts_per_rack = Counter(
                    r for r, _h in {(d.rack, d.host) for d in existing}
                )
                rack = min(hosts_per_rack, key=lambda r: (hosts_per_rack[r], r))
            else:
                rack = 0
        device = Device(osd=int(osd), weight=float(weight), host=int(host), rack=int(rack))
        self._devices[osd] = device
        return device

    def remove_osd(self, osd: int) -> Device:
        try:
            device = self._devices.pop(osd)
        except KeyError:
            raise ValueError(f"osd {osd} not in topology") from None
        return device

    def set_weight(self, osd: int, weight: float) -> Device:
        if weight <= 0:
            raise ValueError("device weight must be positive")
        old = self._devices.get(osd)
        if old is None:
            raise ValueError(f"osd {osd} not in topology")
        self._devices[osd] = Device(old.osd, float(weight), old.host, old.rack)
        return self._devices[osd]

    # ------------------------------------------------------------- queries
    def __contains__(self, osd: int) -> bool:
        return osd in self._devices

    def __len__(self) -> int:
        return len(self._devices)

    def devices(self) -> list[Device]:
        """All devices, sorted by OSD id (the canonical iteration order)."""
        return [self._devices[i] for i in sorted(self._devices)]

    def weights(self) -> dict[int, float]:
        return {i: d.weight for i, d in sorted(self._devices.items())}

    def domain_of(self, osd: int) -> int:
        d = self._devices[osd]
        return d.host if self.failure_domain == "host" else d.rack

    def total_weight(self) -> float:
        return sum(d.weight for d in self._devices.values())

    def describe(self) -> str:
        """Human-readable tree (``python -m repro topology``)."""
        racks: dict[int, dict[int, list[Device]]] = {}
        for d in self.devices():
            racks.setdefault(d.rack, {}).setdefault(d.host, []).append(d)
        lines = [
            f"topology: {len(self._devices)} OSDs, failure domain = "
            f"{self.failure_domain}, total weight {self.total_weight():g}"
        ]
        for rack in sorted(racks):
            lines.append(f"  rack{rack}")
            for host in sorted(racks[rack]):
                devs = ", ".join(
                    f"osd{d.osd}(w={d.weight:g})" for d in racks[rack][host]
                )
                lines.append(f"    host{host}: {devs}")
        return "\n".join(lines)
