"""Canonical metric digests: the determinism oracle.

Two runs of the same experiment/scenario with the same seed must produce
byte-identical digests.  The digest covers the simulation clock, op counts,
latency sums, per-device counters, network totals, failure state, and a
hash of every block's content — so any nondeterminism in event ordering,
data movement, or fault timing changes it.

The content hash names a block's bytes as cheaply as it can say them
exactly.  A block still on the zero template contributes a constant; one
standing on a named populate base (see :mod:`repro.storage.blockstore`)
contributes the base's name — the generator state its file's draw started
from, the draw's shape, the file, stripe and row, and the code — plus its
XOR delta, if it has one; only owned arrays are hashed by their bytes.  The
name fixes the base's bytes, so the digest still changes with any byte, but
a stripe's parity is never encoded and an untouched base never read for
it.  ``tests/test_populate_bytes.py`` pins the SHA-256 of the bytes the
names stand for.  The hash covers how a block is held as well as its bytes:
an all-zero delta and none, or a promoted zero block and the template, hash
apart.  Equal histories still hash alike, which is all a determinism oracle
asks.

Floats are serialized with ``repr`` (shortest round-trip form), which is
deterministic for identical computation histories; the digest is therefore
stable across processes and hash-seed randomization, but not across
platforms with different floating-point libraries.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.ecfs import ECFS

__all__ = ["canonical", "content_digest", "cluster_digest"]


def canonical(obj: Any) -> str:
    """Deterministic flat serialization (sorted keys, repr'd scalars)."""
    if isinstance(obj, dict):
        inner = ",".join(
            f"{canonical(k)}:{canonical(v)}" for k, v in sorted(obj.items())
        )
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical(v) for v in obj) + "]"
    if isinstance(obj, (np.floating, float)):
        return repr(float(obj))
    if isinstance(obj, (np.integer, int)):
        return repr(int(obj))
    return repr(obj)


def content_digest(ecfs: "ECFS") -> str:
    """SHA-256 over every known block's content, in placement-sorted order:
    a constant for an absent or a zero-template block, a named base's name
    and delta, or the bytes (see module docstring)."""
    h = hashlib.sha256()
    for bid in sorted(ecfs.known_blocks):
        store = ecfs.osd_hosting(bid).store
        h.update(str(bid).encode())
        if bid not in store:
            h.update(b"<absent>")
        elif not store.generation(bid):  # reads zeros off the template
            h.update(b"<zero>")
        elif (pair := store.named_base(bid)) is not None:
            base, delta = pair
            h.update(f"<base {base.name!r}>".encode())
            if delta is not None:
                h.update(delta)
        else:
            h.update(np.ascontiguousarray(store.view(bid)))
    return h.hexdigest()


def cluster_digest(ecfs: "ECFS") -> str:
    """SHA-256 digest of the cluster's observable end state."""
    state: dict[str, Any] = {
        "now": ecfs.env.now,
        "oracle_updates": ecfs.oracle.applied_updates,
        "known_blocks": len(ecfs.known_blocks),
        "failed": sorted(ecfs.mds.failed),
        "rehomed": len(ecfs.placement.remapped),
        "epoch": ecfs.placement.epoch,
        "updates": ecfs.metrics.updates.count,
        "reads": ecfs.metrics.reads.count,
        "update_latency_sum": float(sum(ecfs.metrics.updates.latencies)),
        "read_latency_sum": float(sum(ecfs.metrics.reads.latencies)),
        "net_bytes": ecfs.net.total_bytes,
        "net_msgs": ecfs.net.total_msgs,
        "net_dropped": ecfs.net.dropped_msgs,
        "log_debt": ecfs.total_log_debt(),
    }
    for osd in ecfs.osds:
        snap = osd.device.counters.snapshot()
        snap["fault_delay"] = osd.device.fault_delay_time
        state[f"dev_{osd.name}"] = snap
    state["content"] = content_digest(ecfs)
    return hashlib.sha256(canonical(state).encode()).hexdigest()
