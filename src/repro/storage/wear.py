"""Flash wear model: page programs, invalidations, and GC block erases.

The paper's lifespan claim (SSDs under TSUE endure 2.5x-13x longer) derives
from the number and granularity of overwrite operations.  This model maps the
I/O stream a device sees to NAND wear the way an FTL would:

* every write programs whole flash pages — a 4 KiB random overwrite still
  programs one full page (``page_size``), which is the small-write penalty;
* *sequential* stream writes coalesce in the FTL write buffer, so a log
  append stream programs ``ceil(bytes/page)`` pages in aggregate rather than
  one page per call;
* an overwrite invalidates the previous version of its pages; invalidated
  pages must be garbage-collected, and each GC cycle relocates the still-live
  fraction of its victim block (``gc_live_fraction``) before erasing it.

Erase count = programs/pages_per_block (capacity writes) +
GC erases driven by invalidations.  ``lifespan_years`` converts the erase
rate to endurance, given per-block PE-cycle budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["FlashWearModel"]


@dataclass
class FlashWearModel:
    page_size: int = 16 * 1024
    pages_per_block: int = 256  # 4 MiB erase block
    pe_cycles: int = 3000  # TLC-class endurance
    total_blocks: int = 100_000  # 400 GB / 4 MiB
    gc_live_fraction: float = 0.25  # live data copied per GC victim block

    page_programs: int = field(default=0, init=False)
    page_invalidations: int = field(default=0, init=False)
    gc_page_copies: int = field(default=0, init=False)
    _seq_buffer: dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------ API
    def record_write(
        self, size: int, *, sequential: bool, overwrite: bool, stream: str = ""
    ) -> None:
        """Account one write op's NAND impact."""
        if size <= 0:
            raise ValueError("size must be positive")
        if sequential and not overwrite:
            # Appends coalesce in the write buffer: program pages only as
            # whole pages fill.
            buffered = self._seq_buffer.get(stream, 0) + size
            full_pages, rest = divmod(buffered, self.page_size)
            self.page_programs += full_pages
            self._seq_buffer[stream] = rest
        else:
            pages = self._pages_touched(size)
            self.page_programs += pages
            if overwrite:
                self.page_invalidations += pages

    def flush(self) -> None:
        """Flush partial append buffers (end of run): program residual pages."""
        for stream, rest in self._seq_buffer.items():
            if rest:
                self.page_programs += 1
        self._seq_buffer.clear()

    # ------------------------------------------------------------- derived
    @property
    def gc_erases(self) -> float:
        """Erases forced by GC reclaiming invalidated pages.

        Each victim block yields ``pages_per_block * (1 - live)`` free pages
        and costs ``pages_per_block * live`` page copies plus one erase.
        """
        reclaim_per_erase = self.pages_per_block * (1.0 - self.gc_live_fraction)
        return self.page_invalidations / reclaim_per_erase

    @property
    def capacity_erases(self) -> float:
        """Erases implied by total page programs filling blocks."""
        programs = self.page_programs + self.gc_page_copies_estimate
        return programs / self.pages_per_block

    @property
    def gc_page_copies_estimate(self) -> float:
        return self.gc_erases * self.pages_per_block * self.gc_live_fraction

    @property
    def total_erases(self) -> float:
        return self.capacity_erases + self.gc_erases

    # ------------------------------------------------------------ internals
    def _pages_touched(self, size: int) -> int:
        return -(-size // self.page_size)  # ceil division
