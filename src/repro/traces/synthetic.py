"""Synthetic trace generation from a statistical specification."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.traces.locality import LocalityModel
from repro.traces.record import TraceRecord

__all__ = ["SyntheticTraceSpec", "generate_trace"]

_PAGE = 4096


@dataclass(frozen=True)
class SyntheticTraceSpec:
    """Statistical fingerprint of a block trace.

    ``size_buckets`` is a sequence of (size bytes, probability); sizes are
    4K-aligned request sizes.  ``update_ratio`` is the fraction of *writes*
    among all ops, the rest being reads.  The paper's traces are replayed
    onto pre-written files, so every write is an "update" record.
    """

    name: str
    update_ratio: float
    size_buckets: tuple[tuple[int, float], ...]
    zipf_a: float = 1.1
    working_set: float = 0.2
    p_run: float = 0.3

    def __post_init__(self) -> None:
        if not 0 < self.update_ratio <= 1:
            raise ValueError("update_ratio must be in (0, 1]")
        total = sum(p for _s, p in self.size_buckets)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"size bucket probabilities sum to {total}, not 1")
        for s, _p in self.size_buckets:
            if s <= 0 or s % _PAGE:
                raise ValueError(f"size {s} must be a positive multiple of 4K")

    @property
    def mean_size(self) -> float:
        return sum(s * p for s, p in self.size_buckets)


def generate_trace(
    spec: SyntheticTraceSpec,
    n_ops: int,
    file_ids: Sequence[int],
    file_bytes: int,
    seed: int = 0,
) -> list[TraceRecord]:
    """Materialize ``n_ops`` records over the given (pre-written) files."""
    if not file_ids:
        raise ValueError("need at least one file")
    rng = np.random.default_rng(seed)
    sizes = np.array([s for s, _p in spec.size_buckets])
    probs = np.array([p for _s, p in spec.size_buckets])
    localities = {
        fid: LocalityModel(
            file_bytes=file_bytes,
            zipf_a=spec.zipf_a,
            working_set=spec.working_set,
            p_run=spec.p_run,
            seed=int(rng.integers(0, 2**31)) ^ fid,
        )
        for fid in file_ids
    }
    ops = (rng.random(n_ops) < spec.update_ratio).tolist()
    size_draws = rng.choice(sizes, size=n_ops, p=probs).tolist()
    file_draws = rng.choice(np.asarray(file_ids), size=n_ops).tolist()
    # each file's model draws from its own generator, so one batch per file
    # gives the offsets per-op calls would, and they zip back in trace order
    sizes_of: dict[int, list[int]] = {fid: [] for fid in localities}
    for size, fid in zip(size_draws, file_draws):
        sizes_of[fid].append(size)
    offsets = {
        fid: iter(localities[fid].offsets(fid_sizes))
        for fid, fid_sizes in sizes_of.items()
    }
    return [
        TraceRecord("update" if is_update else "read", fid, next(offsets[fid]), size)
        for is_update, size, fid in zip(ops, size_draws, file_draws)
    ]
