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

Legs run as :class:`_GenDriver` objects — the same send/throw resume loop as
``Process._resume``, minus the event bookkeeping — or as :class:`Chain`
events: flat callback sequences (a batched network transfer, a batched
device I/O) that complete *inline* at their final event's pop, the way a
``yield from`` sub-generator resumes its caller without an extra hop.

Timing equivalence with the per-leg idiom (``tests/test_sim_batch.py``
runs seeded leg programs through both):

* the starter drains from ``bucket0`` immediately after the spawning
  process suspends — the exact slot the first ``Initialize`` occupied — and
  runs the legs' first segments consecutively, as consecutive ``Initialize``
  pops did;
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
    PHASE_URGENT,
    Environment,
    Event,
    Lane,
    SimulationError,
)

__all__ = ["Chain", "CountdownLatch", "drive_chain", "spawn_fanout"]


class _LaneCtx:
    """Minimal stand-in for the active process while batched code runs from
    an event callback: everything that inspects ``env.active_process`` in
    this tree reads only ``.lane`` (lane-floor priority, lane inheritance)."""

    __slots__ = ("lane",)

    def __init__(self, lane: Optional[Lane]) -> None:
        self.lane = lane


class Chain(Event):
    """An event completed *inline* by a flat callback sequence.

    Batched primitives (``NetworkFabric.transfer_chain``,
    ``StorageDevice.submit_chain``) hand one of these to the caller, then
    drive it through plain callbacks on their internal timeouts.  The final
    segment calls :meth:`finish` (or :meth:`finish_fail`), which runs the
    waiter's callbacks immediately — zero extra queue hops, exactly when a
    ``yield from`` of the equivalent generator would have resumed the
    caller.  A chain that completes before anyone waits on it is simply an
    already-``_PROCESSED`` event: the engine's inline fast path picks it up.
    """

    __slots__ = ()

    def finish(self, value: Any = None) -> None:
        if self._state >= _PROCESSED:
            raise SimulationError(f"{self!r} already finished")
        self._ok = True
        self._value = value
        self._state = _PROCESSED
        cbs = self.callbacks
        if cbs:
            self.callbacks = []
            for cb in cbs:
                cb(self)

    def finish_fail(self, exc: BaseException) -> None:
        if self._state >= _PROCESSED:
            raise SimulationError(f"{self!r} already finished")
        self._ok = False
        self._value = exc
        self._state = _PROCESSED
        cbs = self.callbacks
        if cbs:
            self.callbacks = []
            for cb in cbs:
                cb(self)
        # With no waiter registered yet the failure is delivered through the
        # engine's already-processed fast path when the creator yields the
        # chain; a chain abandoned *without* ever being waited on must be
        # routed to a latch by its creator instead.


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
            self.env._schedule(relay)

    def leg_failed(self, exc: BaseException) -> None:
        self._remaining -= 1
        if self._settling:
            return  # late failure: defused, like a triggered AllOf member
        self._settling = True
        relay = Event(self.env)
        relay.callbacks.append(self._relay_fail)
        relay._state = 1  # _TRIGGERED
        relay._value = exc
        self.env._schedule(relay)

    def _relay_ok(self, _relay: Event) -> None:
        if self._state == _PENDING:
            self.succeed()

    def _relay_fail(self, relay: Event) -> None:
        if self._state == _PENDING:
            self.fail(relay._value)

    def count_event(self, leg: Event) -> None:
        """Count a pending event (e.g. an in-flight :class:`Chain`) as one
        of this latch's legs."""
        leg.callbacks.append(self._on_leg)

    def _on_leg(self, ev: Event) -> None:
        if ev._ok:
            self.leg_done()
        else:
            ev._defused = True
            self.leg_failed(ev._value)


class _DriverBase:
    """``Process._resume``'s send/throw loop minus the process scaffolding:
    no Initialize event, no finish event — completion reported inline via
    :meth:`_on_done` / :meth:`_on_fail`.  Masquerades as the active process
    during resume so lane-floor priority and child-process lane inheritance
    keep working inside the generator."""

    __slots__ = ("env", "_generator", "_sink", "lane", "name")

    def __init__(
        self,
        env: Environment,
        generator: Generator[Event, Any, Any],
        sink: Event,
        lane: Optional[Lane],
    ) -> None:
        self.env = env
        self._generator = generator
        self._sink = sink
        self.lane = lane
        self.name = getattr(generator, "__name__", "leg")

    def _on_done(self, value: Any) -> None:
        raise NotImplementedError

    def _on_fail(self, exc: BaseException) -> None:
        raise NotImplementedError

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
            except StopIteration as stop:
                self._generator = None
                self._on_done(stop.value)
                break
            except BaseException as exc:
                self._generator = None
                self._on_fail(exc)
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


class _GenDriver(_DriverBase):
    """Drives one fan-out leg, reporting into a :class:`CountdownLatch`
    (the leg's return value is discarded, as ``AllOf`` callers discard the
    condition dict)."""

    __slots__ = ()

    def _on_done(self, value: Any) -> None:
        self._sink.leg_done()

    def _on_fail(self, exc: BaseException) -> None:
        self._sink.leg_failed(exc)


#: shared kick-off value for a leg's first resume (ok, value None)
def _make_bootstrap(env: Environment) -> Event:
    ev = Event(env)
    ev._state = _PROCESSED
    return ev


class _ChainDriver(_DriverBase):
    """Runs a legacy generator to completion, reporting into a
    :class:`Chain` — the fallback that lets chain entry points keep exact
    legacy behavior on rare paths (link faults, partitions, stuck disks)
    without duplicating that logic as callbacks."""

    __slots__ = ()

    def _on_done(self, value: Any) -> None:
        self._sink.finish(value)

    def _on_fail(self, exc: BaseException) -> None:
        self._sink.finish_fail(exc)


def drive_chain(env: Environment, generator) -> Chain:
    """Run ``generator`` as a :class:`Chain`, starting its first segment
    inline — timing-equivalent to ``yield from generator`` at this point in
    the caller (first segment at the current tick, completion resuming the
    waiter inline, return value as the chain's value)."""
    chain = Chain(env)
    active = env._active_proc
    lane = active.lane if active is not None else None
    driver = _ChainDriver(env, generator, chain, lane)
    driver._resume(_make_bootstrap(env))
    return chain


def spawn_fanout(
    env: Environment,
    legs: list,
    lane: Optional[Lane] = ...,
) -> CountdownLatch:
    """Run ``legs`` concurrently; returns a latch that fires when all are
    done — the batched replacement for ``all_of([env.process(leg), ...])``.

    Each leg is a generator, an :class:`Event`/:class:`Chain` already in
    flight, or a zero-argument callable returning one of those (evaluated
    by the starter event, in list order — exactly where the per-leg
    ``Initialize`` events would have begun each leg).

    ``lane`` defaults to the spawning process's lane cell, matching process
    lane inheritance.
    """
    latch = CountdownLatch(env, len(legs))
    if not legs:
        # all_of([]) succeeds at construction and reaches the waiter one
        # hop later; mirror that
        latch.succeed()
        return latch
    if lane is ...:
        active = env._active_proc
        lane = active.lane if active is not None else None

    def _start(_starter: Event) -> None:
        bootstrap = _make_bootstrap(env)
        lane_ctx = _LaneCtx(lane)
        for leg in legs:
            if callable(leg) and not hasattr(leg, "send"):
                # evaluated under a lane stand-in so chain builders (which
                # read env.active_process.lane for priority floors) see the
                # spawning process's lane, as a leg process would have
                prev = env._active_proc
                env._active_proc = lane_ctx
                try:
                    leg = leg()
                except BaseException as exc:
                    # a first-segment raise fails the leg, as it would a
                    # per-leg process
                    latch.leg_failed(exc)
                    continue
                finally:
                    env._active_proc = prev
            if hasattr(leg, "send"):
                _GenDriver(env, leg, latch, lane)._resume(bootstrap)
            else:  # an Event/Chain already representing the leg's completion
                state = leg._state
                if state >= _PROCESSED:
                    if leg._ok:
                        latch.leg_done()
                    else:
                        leg._defused = True
                        latch.leg_failed(leg._value)
                else:
                    latch.count_event(leg)

    starter = Event(env)
    starter.callbacks.append(_start)
    starter._state = 1  # _TRIGGERED
    env._schedule(starter, priority=PHASE_URGENT)
    return latch
