"""Degraded reads: serve data whose home OSD is down by on-the-fly decode.

Until recovery re-homes a failed node's blocks, reads targeting them must
reconstruct the requested range from any k surviving blocks of the stripe —
the "degraded read" path every production EC system implements.  Only the
requested byte range of each surviving block is read (range decode), since
RS decoding is positional.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

import numpy as np

from repro.cluster.ids import BlockId
from repro.common.errors import DecodeError
from repro.storage.base import IOKind, IOPriority

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.ecfs import ECFS

__all__ = ["degraded_read"]


def degraded_read(
    ecfs: "ECFS", block: BlockId, offset: int, size: int, requester: str
) -> Generator:
    """Process: reconstruct ``block[offset:offset+size]`` from survivors.

    ``requester`` is the network node performing the decode (typically the
    client); surviving fragments are shipped to it before decoding.
    Returns the reconstructed bytes.
    """
    rs = ecfs.rs
    sources: list[BlockId] = []
    for i in range(rs.k + rs.m):
        if i == block.idx:
            continue
        sid = BlockId(block.file_id, block.stripe, i)
        host = ecfs.osd_hosting(sid)
        # a survivor must be alive AND reachable from the requester: a
        # partitioned (not failed) host would park the fetch until the
        # heal, which defeats the point of reconstructing around it —
        # this is what lets a hedged read dodge a network cut
        if not host.failed and ecfs.net.reachable(requester, host.name):
            sources.append(sid)
        if len(sources) == rs.k:
            break
    if len(sources) < rs.k:
        raise DecodeError(
            f"degraded read of {block}: only {len(sources)} survivors"
        )

    env = ecfs.env
    fetches = [
        env.process(_fetch_range(ecfs, sid, offset, size, requester), name=f"dr-{sid}")
        for sid in sources
    ]
    results = yield env.all_of(fetches)
    available = {sid.idx: results[f] for sid, f in zip(sources, fetches)}
    # positional decode over just the requested range
    yield env.timeout_us(ecfs.config.costs.gf_mul(size, terms=rs.k))
    rebuilt = rs.decode(available, [block.idx])[block.idx]
    # acked-but-unrecycled updates live on in the (replicated) logs: overlay
    # them so the degraded read is never stale (§4.2)
    rebuilt = yield env.process(
        ecfs.method.degraded_overlay(block, offset, size, rebuilt)
    )
    return rebuilt


def _fetch_range(
    ecfs: "ECFS", sid: BlockId, offset: int, size: int, requester: str
) -> Generator:
    osd = ecfs.osd_hosting(sid)
    yield from ecfs.net.transfer(requester, osd.name, ecfs.config.header_bytes)
    # consult the update method's read path so logs/caches are honoured
    data = yield ecfs.env.process(
        ecfs.method.handle_read(osd, sid, offset, size)
    )
    yield from ecfs.net.transfer(osd.name, requester, size)
    return np.asarray(data, dtype=np.uint8)
