"""Macro-op fan-out batching: aggregate n sub-op legs into O(1) events.

The classic fan-out idiom —

    jobs = [env.process(leg()) for leg in legs]
    yield env.all_of(jobs)

costs, per leg, a :class:`~repro.sim.core.Process` allocation, an
``Initialize`` event, a process-finish event, and an ``AllOf`` membership
check.  For a k+m stripe fan-out that is ~2(k+m)+1 scheduled events of pure
scaffolding around the legs' actual work.  This module collapses the
scaffolding to a constant three events regardless of width:

* one *starter* event (URGENT lane) that begins every leg back-to-back —
  exactly where the per-leg ``Initialize`` events would have run,
* one *relay* event standing in the queue slot of the final leg's finish
  event,
* the :class:`CountdownLatch` itself, fired by the relay where the ``AllOf``
  condition event would have fired.

Legs are generators, run as :class:`_GenDriver` objects — the same
send/throw resume loop as ``Process._resume``, minus the event bookkeeping.
A leg that moves bytes or does device I/O does so through the one timing
model of each, ``yield from NetworkFabric.transfer(...)`` and
``yield from StorageDevice.submit(...)``.

Timing equivalence with the per-leg idiom (``tests/test_sim_batch.py``
runs seeded leg programs through both):

* the starter joins the current tick's URGENT lane and drains immediately
  after the spawning process suspends — the exact slot the first
  ``Initialize`` occupied — and runs the legs' first segments
  consecutively, as consecutive ``Initialize`` pops did;
* every mid-leg event carries the driver's resume callback in the same
  queue position the leg process's would have had;
* the latch fires two same-tick hops after the final leg's last action
  (relay, then latch) — matching finish-event + ``AllOf`` in the per-leg
  path; leg failures reach the waiter two hops after the failing action,
  and later failures are swallowed exactly as a triggered ``AllOf`` defuses
  its members.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.sim.core import (
    _PENDING,
    _PROCESSED,
    PHASE_NORMAL,
    PHASE_URGENT,
    Environment,
    Event,
    Lane,
    SimulationError,
)

__all__ = ["CountdownLatch", "spawn_fanout"]


class CountdownLatch(Event):
    """``all_of_n`` without per-leg processes: fires when ``n`` legs finish.

    Legs report through :meth:`leg_done` / :meth:`leg_failed`; completion
    and first-failure each reach the waiter via one relay event + the latch
    event itself — the same two same-tick hops as finish-event + ``AllOf``
    on the per-leg path.  Failures after the first (or after success) are
    swallowed, as a triggered ``AllOf`` defuses late member failures.
    """

    __slots__ = ("_remaining", "_settling")

    def __init__(self, env: Environment, count: int) -> None:
        super().__init__(env)
        self._remaining = count
        self._settling = False

    def leg_done(self) -> None:
        self._remaining -= 1
        if self._remaining == 0 and not self._settling:
            self._settling = True
            relay = Event(self.env)
            relay.callbacks.append(self._relay_ok)
            relay._state = 1  # _TRIGGERED
            env = self.env
            env._push(env._now, PHASE_NORMAL, relay)

    def leg_failed(self, exc: BaseException) -> None:
        self._remaining -= 1
        if self._settling:
            return  # late failure: defused, like a triggered AllOf member
        self._settling = True
        relay = Event(self.env)
        relay.callbacks.append(self._relay_fail)
        relay._state = 1  # _TRIGGERED
        relay._value = exc
        env = self.env
        env._push(env._now, PHASE_NORMAL, relay)

    def _relay_ok(self, _relay: Event) -> None:
        if self._state == _PENDING:
            self.succeed()

    def _relay_fail(self, relay: Event) -> None:
        if self._state == _PENDING:
            self.fail(relay._value)


class _GenDriver:
    """Drives one fan-out leg: ``Process._resume``'s send/throw loop minus
    the process scaffolding — no Initialize event, no finish event; the
    leg's completion or failure goes straight into its
    :class:`CountdownLatch` (the return value is discarded, as ``AllOf``
    callers discard the condition dict).  Masquerades as the active process
    during resume so lane-floor priority and child-process lane inheritance
    keep working inside the generator."""

    __slots__ = ("env", "_generator", "_latch", "lane", "name")

    def __init__(
        self,
        env: Environment,
        generator: Generator[Event, Any, Any],
        latch: CountdownLatch,
        lane: Optional[Lane],
    ) -> None:
        self.env = env
        self._generator = generator
        self._latch = latch
        self.lane = lane
        self.name = getattr(generator, "__name__", "leg")

    def _resume(self, event: Event) -> None:
        gen = self._generator
        if gen is None:
            return  # stale wakeup: the leg already finished
        env = self.env
        prev = env._active_proc
        env._active_proc = self
        send = gen.send
        throw = gen.throw
        while True:
            try:
                if event._ok:
                    next_ev = send(event._value)
                else:
                    event._defused = True
                    next_ev = throw(event._value)
            except StopIteration:
                self._generator = None
                self._latch.leg_done()
                break
            except BaseException as exc:
                self._generator = None
                self._latch.leg_failed(exc)
                break

            try:
                state = next_ev._state
                foreign = next_ev.env is not env
            except AttributeError:
                exc = SimulationError(
                    f"leg {self.name!r} yielded non-event {next_ev!r}"
                )
                event = Event(env)
                event._ok = False
                event._value = exc
                continue
            if foreign:
                exc = SimulationError("yielded event belongs to another environment")
                event = Event(env)
                event._ok = False
                event._value = exc
                continue
            if state == _PROCESSED:
                event = next_ev
                continue

            next_ev.callbacks.append(self._resume)
            break
        env._active_proc = prev


def spawn_fanout(env: Environment, legs: list) -> CountdownLatch:
    """Run the generator ``legs`` concurrently; returns a latch that fires
    when all are done — the batched replacement for
    ``all_of([env.process(leg), ...])``.

    The starter event begins the legs in list order, exactly where the
    per-leg ``Initialize`` events would have begun them.  Each leg inherits
    the spawning process's lane cell, matching process lane inheritance.
    """
    latch = CountdownLatch(env, len(legs))
    if not legs:
        # all_of([]) succeeds at construction and reaches the waiter one
        # hop later; mirror that
        latch.succeed()
        return latch
    active = env._active_proc
    lane = active.lane if active is not None else None

    def _start(_starter: Event) -> None:
        # the kick-off value every leg's first resume sends (ok, None)
        bootstrap = Event(env)
        bootstrap._state = _PROCESSED
        for leg in legs:
            _GenDriver(env, leg, latch, lane)._resume(bootstrap)

    starter = Event(env)
    starter.callbacks.append(_start)
    starter._state = 1  # _TRIGGERED
    env._push(env._now, PHASE_URGENT, starter)
    return latch
