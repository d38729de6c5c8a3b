"""Content-addressed populate/trace prefix sharing across sweep cells.

Every experiment/scenario cell starts with the same two pure prefixes:

* **trace generation** — ``generate_trace(spec, n_ops, files, bytes,
  seed)`` is a pure function of its arguments;
* **random-fill populate** — ``ECFS.populate(..., fill="random")`` draws
  and RS-encodes every stripe from the config-seeded RNG, a pure function
  of the cluster geometry + seed.

Cells that share geometry and seed (the scenario x seed grids, a
method-dimension sweep over one trace, a determinism double-run) would
re-derive both prefixes per cell; this module memoizes them under
content-addressed keys.  The memo is per-process — each worker of a
:mod:`repro.harness.sweep` pool warms its own — and **faithful by
construction**: a populate hit restores the exact block bytes, oracle
state, MDS layout, *and* the post-populate RNG state, so a cached cell is
byte-identical to a cold one (the scenario determinism tests double-run
through this cache and assert equal digests).
A hit copies no block: the stores and the oracle share the memo's read-only
populate views, as a cold populate shares its matrix.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields
from typing import TYPE_CHECKING, Sequence

from repro.fault.digest import canonical as _canonical

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.ecfs import ECFS
    from repro.traces.record import TraceRecord
    from repro.traces.synthetic import SyntheticTraceSpec

__all__ = ["cached_trace", "populate_cached", "clear_prefix_caches"]

#: snapshots above this many bytes are not memoized (a full-scale populate
#: is hundreds of MB; the grids that benefit are scenario-sized)
_MAX_SNAPSHOT_BYTES = 64 * 1024 * 1024
#: total bytes the populate memo may hold per process (the cap every pool
#: worker pays separately — without it, 16 near-cap snapshots would pin
#: ~1 GiB per worker)
_MAX_TOTAL_BYTES = 192 * 1024 * 1024
_MAX_ENTRIES = 16

_trace_memo: dict[str, list] = {}
_populate_memo: dict[str, dict] = {}
_populate_bytes = 0


def clear_prefix_caches() -> None:
    global _populate_bytes
    _trace_memo.clear()
    _populate_memo.clear()
    _populate_bytes = 0


# ------------------------------------------------------------------- traces
def cached_trace(
    spec: "SyntheticTraceSpec",
    n_ops: int,
    file_ids: Sequence[int],
    file_bytes: int,
    seed: int,
) -> list["TraceRecord"]:
    """Memoized :func:`~repro.traces.synthetic.generate_trace` (records are
    frozen, so cells share one materialized list safely)."""
    from repro.traces.synthetic import generate_trace

    key = _canonical(
        {
            "spec": repr(spec),
            "n_ops": int(n_ops),
            "files": [int(f) for f in file_ids],
            "file_bytes": int(file_bytes),
            "seed": int(seed),
        }
    )
    records = _trace_memo.get(key)
    if records is None:
        if len(_trace_memo) >= _MAX_ENTRIES:
            _trace_memo.clear()
        records = _trace_memo[key] = generate_trace(
            spec, n_ops, file_ids, file_bytes, seed=seed
        )
    return list(records)


# ----------------------------------------------------------------- populate
def _populate_key(ecfs: "ECFS", n_files: int, stripes_per_file: int, fill: str) -> str:
    cfg = ecfs.config
    payload = {f.name: repr(getattr(cfg, f.name)) for f in fields(cfg)}
    payload.update(
        {"__n_files__": n_files, "__stripes__": stripes_per_file, "__fill__": fill}
    )
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


def populate_cached(
    ecfs: "ECFS", n_files: int, stripes_per_file: int, fill: str = "random"
) -> list[int]:
    """:meth:`ECFS.populate` through the content-addressed prefix memo.

    Only ``fill="random"`` runs are memoized (zero fill is already CoW-
    free); anything else — and oversized populations — falls through to a
    plain populate.
    """
    if fill != "random":
        return ecfs.populate(n_files, stripes_per_file, fill=fill)
    total = (
        n_files
        * stripes_per_file
        * (ecfs.rs.k + ecfs.rs.m)
        * ecfs.config.block_size
    )
    if total > _MAX_SNAPSHOT_BYTES:
        return ecfs.populate(n_files, stripes_per_file, fill=fill)
    key = _populate_key(ecfs, n_files, stripes_per_file, fill)
    snap = _populate_memo.get(key)
    if snap is None:
        global _populate_bytes
        file_ids = ecfs.populate(n_files, stripes_per_file, fill=fill)
        if (
            len(_populate_memo) >= _MAX_ENTRIES
            or _populate_bytes + total > _MAX_TOTAL_BYTES
        ):
            _populate_memo.clear()
            _populate_bytes = 0
        _populate_bytes += total
        _populate_memo[key] = {
            "file_ids": list(file_ids),
            "sizes": {
                fid: ecfs.mds.lookup(fid).size for fid in file_ids
            },
            # read-only views of the populate matrices: no store writes a
            # shared base (mutations land in per-block XOR deltas), so the
            # cold cell's run leaves them pristine for every later hit
            "blocks": [
                (bid, ecfs.osd_hosting(bid).store.view(bid))
                for bid in sorted(ecfs.known_blocks)
            ],
            # populate is the only consumer of the cluster RNG: restoring
            # its end state keeps a cached cell bit-identical to a cold one
            "rng_state": ecfs._rng.bit_generator.state,
        }
        return file_ids

    k = ecfs.rs.k
    for fid in snap["file_ids"]:
        meta = ecfs.mds.create_file(snap["sizes"][fid])
        assert meta.file_id == fid, "MDS file-id allocation diverged"
    for bid, content in snap["blocks"]:
        ecfs.osd_hosting(bid).store.create_shared(bid, content)
        ecfs.known_blocks.add(bid)
        if bid.idx < k:
            ecfs.oracle.adopt(bid, content)
    for fid in snap["file_ids"]:
        ecfs.mds.mark_written(fid, 0, snap["sizes"][fid])
    ecfs._rng.bit_generator.state = snap["rng_state"]
    return list(snap["file_ids"])
