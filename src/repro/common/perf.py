"""Host-side performance helpers (no simulated-time semantics).

The simulators allocate enough short-lived objects that ambient CPython
gen-2 GC passes — whose cost scales with everything *earlier* work left
alive in the process — can multiply a ~1 s run's wall clock several-fold.
Nothing in a simulation run creates reference cycles it needs collected
mid-flight, so the timed sections park the collector: collect once up
front (so the heap handed to the run is clean), disable, and re-enable
afterwards.  Nested uses are safe; the collector is only re-enabled by
the outermost frame that actually disabled it.

:func:`host_usage` and :func:`rss_mb` read what the run cost the kernel and
what it holds resident (``ExperimentResult.perf``, ``python -m repro
profile``); perfbench keeps its own ``ru_maxrss`` read-out.
"""

from __future__ import annotations

import gc
import os
import sys
from contextlib import contextmanager
from typing import Iterator

from repro.common.units import KiB, MiB

try:
    import resource
except ImportError:  # pragma: no cover - no resource module on Windows
    resource = None

__all__ = ["host_usage", "parked_gc", "rss_mb"]


@contextmanager
def parked_gc() -> Iterator[None]:
    """Run the body with the cyclic GC disabled (see module docstring)."""
    if not gc.isenabled():
        # already parked by an outer frame (or the host runs GC-free):
        # don't collect, don't re-enable early
        yield
        return
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def host_usage() -> tuple[float, int]:
    """(system-CPU seconds, minor page faults) this process has used so
    far — callers take deltas around a phase.  Zeros where the platform
    has no ``resource`` module."""
    if resource is None:
        return 0.0, 0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_stime, usage.ru_minflt


def rss_mb() -> float:
    """Resident set size right now, in MiB (``/proc/self/statm``).  Where
    there is no ``/proc`` the process's *peak* (``ru_maxrss``) stands in; 0.0
    where there is neither."""
    try:
        with open("/proc/self/statm") as statm:
            pages = int(statm.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / MiB
    except OSError:
        if resource is None:
            return 0.0
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # kilobytes on Linux and the BSDs, bytes on macOS
        return peak / MiB if sys.platform == "darwin" else peak / KiB
