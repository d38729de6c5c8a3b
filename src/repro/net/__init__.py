"""Cluster network model: NICs, a non-blocking switch fabric, RPC transfers.

Bandwidth is enforced at the endpoints (each node's NIC port is a clock
serialized at link rate); the switch itself is full-bisection, matching the
paper's single 25 Gb/s ToR switch.  All bytes moved are accounted globally
— the NETWORK TRAFFIC column of Table 1.
"""

from repro.net.fabric import LinkFault, NetworkFabric, NetParams, NIC

__all__ = ["LinkFault", "NetworkFabric", "NetParams", "NIC"]
