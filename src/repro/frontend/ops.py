"""Core request dispatch: the generators that actually move an op.

This is the bottom layer of the front-end subsystem — the verbatim dispatch
logic that used to be open-coded inside ``Client.update``/``Client.read``:
locate the block, ship the payload to its primary, chase epoch remaps that
land mid-flight, wait out reconstruction freezes, and record the completion
into the cluster metrics.  Both the seed-compatible :class:`Client` shim
and the QoS-aware :class:`~repro.frontend.dispatcher.FrontEnd` execute
requests through these functions, so the two paths can never drift.

Everything here is deliberately policy-free: no retries, no hedging, no
deadlines — a failure (down primary, impossible decode) surfaces as the
update method's exception.  Policy lives one layer up, in
:mod:`repro.frontend.dispatcher`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.cluster.ids import BlockId

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.client import UpdateOp
    from repro.cluster.ecfs import ECFS

__all__ = ["locate_clamped", "execute_update", "execute_read", "hedged_reconstruct"]


def locate_clamped(
    ecfs: "ECFS", file_id: int, offset: int, size: int
) -> tuple[BlockId, int, int]:
    """Map a file range to (block, in-block offset, size clamped to block)."""
    block, in_off = ecfs.mds.locate(file_id, offset, ecfs.rs.k)
    if in_off + size > ecfs.config.block_size:
        size = ecfs.config.block_size - in_off  # clamp at block boundary
    return block, in_off, size


def execute_update(ecfs: "ECFS", client: str, op: "UpdateOp") -> Generator:
    """Process: dispatch one update op from ``client``; returns latency.

    The op's payload and issue time are already fixed by the caller, so a
    retrying front end re-executes the *same* op deterministically.
    """
    block = op.block
    size = op.size
    # reconstruction may hold the stripe frozen (capture -> re-home);
    # updates wait so their parity deltas cannot race the re-home
    # (cheap pre-check: avoids a waiter generator on the common path)
    if ecfs.stripe_frozen(block.file_id, block.stripe):
        yield from ecfs.wait_stripe_thaw(block.file_id, block.stripe)
    primary = ecfs.osd_hosting(block)
    hdr = ecfs.config.header_bytes
    yield from ecfs.net.transfer(client, primary.name, size + hdr)
    # an epoch remap (rebalance move, recovery re-home) can change the
    # block's home while the request is in flight: chase the redirect
    # like a real client retrying on wrong-primary.  Zero-cost on the
    # common path — the loop body only runs if the home actually moved
    # or the stripe froze under us.
    while True:
        if ecfs.stripe_frozen(block.file_id, block.stripe):
            yield from ecfs.wait_stripe_thaw(block.file_id, block.stripe)
        current = ecfs.osd_hosting(block)
        if current is primary:
            break
        yield from ecfs.net.transfer(primary.name, current.name, size + hdr)
        primary = current
    ecfs.note_update_begin(block)
    try:
        yield ecfs.env.process(
            ecfs.method.handle_update(primary, op), name=f"upd{op.op_id}"
        )
    finally:
        ecfs.note_update_end(block)
    yield from ecfs.net.transfer(primary.name, client, ecfs.config.ack_bytes)
    latency = ecfs.env.now - op.issued_at
    ecfs.metrics.record_update(latency, size)
    return latency


def execute_read(
    ecfs: "ECFS", client: str, file_id: int, offset: int, size: int
) -> Generator:
    """Process: read ``size`` bytes (clamped to one block), returns bytes.

    If the block's home OSD is down, falls back to a degraded read
    (on-the-fly decode from k survivors).
    """
    block, in_off, size = locate_clamped(ecfs, file_id, offset, size)
    env = ecfs.env
    t0 = env.now
    primary = ecfs.osd_hosting(block)
    hdr = ecfs.config.header_bytes
    if primary.failed:
        from repro.cluster.degraded import degraded_read

        data = yield env.process(
            degraded_read(ecfs, block, in_off, size, client),
            name=f"{client}-degraded",
        )
        ecfs.metrics.record_read(env.now - t0, size)
        return data
    yield from ecfs.net.transfer(client, primary.name, hdr)
    # chase epoch remaps that landed while the request was in flight
    while True:
        current = ecfs.osd_hosting(block)
        if current is primary:
            break
        yield from ecfs.net.transfer(primary.name, current.name, hdr)
        primary = current
    data = yield env.process(ecfs.method.handle_read(primary, block, in_off, size))
    yield from ecfs.net.transfer(primary.name, client, size + hdr)
    ecfs.metrics.record_read(env.now - t0, size)
    return data


def hedged_reconstruct(
    ecfs: "ECFS", client: str, file_id: int, offset: int, size: int
) -> Generator:
    """Process: serve a read by EC reconstruction instead of the primary.

    The hedge leg of a hedged read: rebuild the requested range from k
    *other* blocks of the stripe (the home OSD is never consulted), exactly
    the degraded-read machinery — which works whether the primary is slow,
    partitioned, or perfectly healthy.  The completion is **not** recorded
    in the cluster read metrics: those count one sample per *primary-leg*
    completion (the server-side op latency, even when that leg straggles
    past an abandonment), while the tenant-observed latency of a hedge-won
    read lives in the SLO layer's records.
    """
    from repro.cluster.degraded import degraded_read

    block, in_off, size = locate_clamped(ecfs, file_id, offset, size)
    data = yield ecfs.env.process(
        degraded_read(ecfs, block, in_off, size, client),
        name=f"{client}-hedge",
    )
    return data
