"""A no-op kept for perfbench.

Every experiment and scenario cell builds its own populate and trace; no
memo sits between cells.  ``perfbench/driver.py`` (frozen by
``BENCHMARK.json``) still imports :func:`clear_prefix_caches` and calls it
before each repeat, so the name stays until ROADMAP item 5.2 deletes it.
"""

from __future__ import annotations

__all__ = ["clear_prefix_caches"]


def clear_prefix_caches() -> None:
    """Nothing to clear: there is no populate or trace memo."""
