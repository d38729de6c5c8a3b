"""Discrete-event simulation engine.

A compact, dependency-free process-based DES in the style of SimPy: processes
are Python generators that ``yield`` events; the :class:`Environment` advances
a virtual clock along an event heap.  The engine provides the primitives the
cluster model needs:

* :class:`Event` / :class:`Timeout` / :class:`Process` — core event types,
* :class:`AllOf` / :class:`AnyOf` — condition events for fan-out/fan-in,
* :class:`Resource` — queued mutual exclusion, ordered by
  ``(priority, arrival)``, used to model storage devices and NICs,
* :func:`spawn_fanout` — a fan-out of generator legs behind one
  :class:`CountdownLatch`,
* :class:`Store` — producer/consumer queue used for mailboxes and pipelines,
* :class:`Interrupt` — cooperative cancellation (used by failure injection).

The clock is an integer count of microseconds with ``(t_us, phase, seq)``
event ordering, and every delay goes in as integer µs (``timeout_us``,
``timeout_at_us``, ``schedule_at_us``); a value given in seconds is put on
that grid once, where it enters, with :func:`s_to_us`.  Only
``Environment.now`` (a read-only view) and ``run(until=...)`` speak seconds.
See :mod:`repro.sim.core` for the :data:`PHASE_URGENT` /
:data:`PHASE_NORMAL` / :data:`PHASE_LATE` same-time lanes.
"""

from repro.sim.batch import CountdownLatch, spawn_fanout
from repro.sim.core import (
    PHASE_LATE,
    PHASE_NORMAL,
    PHASE_URGENT,
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Lane,
    Process,
    SimulationError,
    Timeout,
    s_to_us,
)
from repro.sim.resources import Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "CountdownLatch",
    "Environment",
    "Event",
    "Interrupt",
    "Lane",
    "PHASE_LATE",
    "PHASE_NORMAL",
    "PHASE_URGENT",
    "Process",
    "Resource",
    "SimulationError",
    "Store",
    "Timeout",
    "s_to_us",
    "spawn_fanout",
]
