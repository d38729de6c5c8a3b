"""Spatio-temporal locality engine for synthetic traces.

Two mechanisms compose:

* **temporal/hotspot locality** — target pages are drawn from a bounded
  Zipf distribution over a permuted page space: a small fraction of pages
  receives most accesses (Ten-Cloud: >80% of volumes touch <5% of their
  data).  ``zipf_a`` controls skew; ``working_set`` caps the fraction of the
  space the Zipf mass lands on.
* **spatial/run locality** — with probability ``p_run`` the next access
  continues at the previous end offset (sequential run), producing the
  adjacent-update patterns the DataLog coalesces.

An access draws one or two doubles from the model's own generator: a run
check against ``p_run`` once a previous access has ended somewhere, then,
unless the run continues, a hot-set page ``Generator.choice(n, p=probs)``
would have picked.  numpy's scalar weighted ``choice`` re-validates ``p``,
builds ``cdf = p.cumsum(); cdf /= cdf[-1]`` and returns
``cdf.searchsorted(random(), side="right")`` on every call.  ``probs``
never changes, so the CDF is built once at construction, with the same two
operations (the same float64 array); its probability check is made there.

:meth:`LocalityModel.offsets` then places all of one file's accesses in a
single batch instead of one Python call per access:

1. one ``random(2 * len(sizes))`` draw — every access needs at most two
   doubles, and the array draw returns the doubles the scalar calls would;
2. one vectorized ``searchsorted(side="right")`` maps every double to a
   hot-set page, exactly what ``choice`` would return for it;
3. a loop over plain lists decides run or hot set per access, taking the
   doubles in order (an access with ``size >= file_bytes`` draws none);
4. the doubles left over are given back: ``bit_generator.advance(2**128 -
   unused)`` steps PCG64 back, and since ``advance`` clears the buffered
   32-bit half, ``has_uint32`` / ``uinteger`` are written back as
   ``common/randbytes.py`` does.

The offsets and the generator state afterwards equal what per-access
draws would have produced, so every trace is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["LocalityModel"]

_PAGE = 4096


@dataclass
class LocalityModel:
    """Samples file-relative page offsets with tunable locality."""

    file_bytes: int
    zipf_a: float = 1.1
    working_set: float = 0.2
    p_run: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.file_bytes < _PAGE:
            raise ValueError("file too small")
        if not 0 < self.working_set <= 1:
            raise ValueError("working_set must be in (0, 1]")
        if not 0 <= self.p_run < 1:
            raise ValueError("p_run must be in [0, 1)")
        self._rng = np.random.default_rng(self.seed)
        self.n_pages = self.file_bytes // _PAGE
        hot_pages = max(1, int(self.n_pages * self.working_set))
        # Zipf weights over the hot set; rank -> page via a fixed permutation
        ranks = np.arange(1, hot_pages + 1, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            weights = ranks ** (-self.zipf_a)
            probs = weights / weights.sum()
            self._cdf = probs.cumsum()
            self._cdf /= self._cdf[-1]
        if not np.isfinite(self._cdf).all():
            raise ValueError(f"zipf_a={self.zipf_a} gives no finite distribution")
        self._page_of_rank = self._rng.permutation(self.n_pages)[:hot_pages]
        self._last_end = 0

    def offsets(self, sizes: Sequence[int]) -> list[int]:
        """File offsets (page aligned) for consecutive accesses of ``sizes``
        bytes: a run continues at the previous end, any other access lands
        on a hot-set page; an access that fills the file (``size >=
        file_bytes``) is at 0 and draws nothing."""
        rng = self._rng
        drawn = 2 * len(sizes)
        doubles = rng.random(drawn)
        ranks = self._cdf.searchsorted(doubles, side="right")
        hot = (self._page_of_rank[ranks] * _PAGE).tolist()
        doubles = doubles.tolist()
        file_bytes, p_run = self.file_bytes, self.p_run
        last_end, used = self._last_end, 0
        out = []
        for size in sizes:
            limit = file_bytes - size
            if limit <= 0:
                out.append(0)
                continue
            if last_end and doubles[used] < p_run:
                offset = min(last_end, limit)  # sequential continuation
                used += 1
            else:
                if last_end:
                    used += 1  # the run check drew a double and failed
                offset = min(hot[used], limit)
                used += 1
            last_end = offset + size
            out.append(offset)
        self._last_end = last_end
        if used < drawn:
            # give the unused doubles back; advance clears the buffered half
            bitgen = rng.bit_generator
            state = bitgen.state
            bitgen.advance(2**128 - (drawn - used))
            if state["has_uint32"] or state["uinteger"]:
                after = bitgen.state
                after["has_uint32"] = state["has_uint32"]
                after["uinteger"] = state["uinteger"]
                bitgen.state = after
        return out
