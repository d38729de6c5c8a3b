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

The hot-set draw reproduces ``Generator.choice(n, p=probs)`` without paying
for it per access.  numpy's scalar weighted ``choice`` re-validates ``p``,
builds ``cdf = p.cumsum(); cdf /= cdf[-1]`` and returns
``cdf.searchsorted(random(), side="right")`` on every call: one ``random()``
double and one binary search, behind passes over the whole distribution
(13–15 µs per draw for a 614-page hot set on a 2-vCPU x86 host, against
1.5 µs for the search alone).  ``probs`` never changes after construction,
so building that CDF once with the same two operations gives the same
float64 array, and the same double searched in it gives the same rank: the
generator consumes exactly what ``choice`` consumed.  The probability check
``choice`` made on every draw is made once, on the CDF.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def next_offset(self, size: int) -> int:
        """File offset for the next access of ``size`` bytes (page aligned).

        A hot-set access is ``Generator.choice(len(probs), p=probs)`` done by
        hand: one ``random()`` double searched (``side="right"``) in the CDF
        built at construction, so it returns the same rank and leaves the
        same generator state, for about one double and one binary search
        instead of a pass over the distribution.  An access that fills the
        file (``size >= file_bytes``) draws nothing.
        """
        limit = self.file_bytes - size
        if limit <= 0:
            return 0
        if self._last_end and self._rng.random() < self.p_run:
            offset = min(self._last_end, limit)  # sequential continuation
        else:
            rank = int(self._cdf.searchsorted(self._rng.random(), side="right"))
            offset = int(self._page_of_rank[rank]) * _PAGE
            offset = min(offset, limit)
        self._last_end = offset + size
        return offset
