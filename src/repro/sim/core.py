"""Core of the discrete-event engine: events, processes, environment.

Time representation
-------------------
The clock is an **integer count of microseconds** (``Environment._now``).
Queued entries are ordered by ``(t_us, phase, seq)``:

* ``t_us`` — integer microsecond timestamp (exact arithmetic: hours of
  simulated time accumulate no float error);
* ``phase`` — the same-time lane: :data:`PHASE_URGENT` (0, process
  initialization and interrupts), :data:`PHASE_NORMAL` (1, the default),
  :data:`PHASE_LATE` (2, settle/maintenance wakeups that must sort after
  all normal work at the same tick);
* ``seq`` — a global schedule-order counter breaking ties FIFO.

Every delay and absolute time goes in as integer µs (``timeout_us``,
``timeout_at_us``, ``schedule_at_us``, ``peek_us``); a value given in
seconds (a config interval, a fault schedule, a trace arrival) is converted
once, where it enters, with :func:`s_to_us`.  Only :attr:`Environment.now`
(a read-only view) and ``run(until=...)`` speak seconds.

Hot-path notes
--------------
The engine is the profiled bottleneck of every experiment, so the event
loop is written for throughput:

* every enqueue goes through :meth:`Environment._push`, which holds one
  rule: an entry due at the current tick joins the tail of its **phase
  lane** (three FIFO deques: URGENT, NORMAL, LATE), a later one goes on
  the heap.  When :meth:`Environment.run` advances the clock it moves the
  whole new tick from the heap into the lanes, so every entry due now is
  in a lane and the heap holds only later ticks; each lane is in ``seq``
  order, and popping the lowest non-empty lane *is* ``(phase, seq)``
  order.  Zero-delay events (process spawns, wakeups, uncontended grants,
  fan-out legs — two-thirds or more of all events in a dense run) cost
  no key tuple and no sift.  Sending everything to the heap instead is
  simpler still, but measured 6 % fewer simulated ops per host second on
  ``tsue_mixed_ten`` (median of four runs on a 2-vCPU host);
* the clock is written once per distinct ``t_us``, and the callback sweep
  runs with local bindings and no method-call dispatch per event;
* events carry a cancellation flag (:meth:`Event.cancel`): a cancelled
  entry is discarded when reached — no heap surgery, no callbacks, no
  clock movement — which is what makes abandoning a pending
  :class:`Timeout` (interrupted processes, raced waiters) free;
* a process yielding an already-processed event resumes inline without a
  heap round-trip, and resources exploit this by *immediately* finishing
  uncontended grants (see :mod:`repro.sim.resources`).

Tie-break ordering: events scheduled at the same simulated time process in
(phase, schedule-order) order; :meth:`Environment.peek_us` reports the next
non-cancelled entry's time.

Processes and fan-out
---------------------
:meth:`Process._resume` is the one loop that drives a generator (its
``send`` / ``throw``); it ends through :meth:`Process._finish`, which fires
the process's own finish event.  :func:`spawn_fanout` runs each of its legs
as a :class:`Process` subclass that its starter event begins and that
finishes into a :class:`CountdownLatch`, so a fan-out whose member values
nobody reads costs three scheduled events of scaffolding whatever its
width; :class:`AllOf` serves the callers that read them.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "SimulationError",
    "Interrupt",
    "Event",
    "Timeout",
    "Lane",
    "Process",
    "AllOf",
    "AnyOf",
    "CountdownLatch",
    "Environment",
    "PHASE_URGENT",
    "PHASE_NORMAL",
    "PHASE_LATE",
    "s_to_us",
    "spawn_fanout",
]

_INF = float("inf")

#: same-time lanes: urgent (init/interrupt) < normal < late (settle/maintenance)
PHASE_URGENT = 0
PHASE_NORMAL = 1
PHASE_LATE = 2


def s_to_us(seconds: float) -> int:
    """Seconds onto the engine's integer-µs grid (round half to even)."""
    return round(seconds * 1e6)


class SimulationError(RuntimeError):
    """Raised for engine misuse (double trigger, yielding foreign events...)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value passed by the interrupter.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


# Event lifecycle states.
_PENDING = 0
_TRIGGERED = 1  # queued (lane or heap), not yet processed
_PROCESSED = 2


class Event:
    """A one-shot occurrence on the simulation timeline.

    Events start *pending*; :meth:`succeed` or :meth:`fail` moves them to
    *triggered* (scheduled), and the environment loop then runs their
    callbacks, making them *processed*.  Processes wait on events by yielding
    them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_state", "_defused",
                 "_cancelled", "_seq")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._state = _PENDING
        self._defused = False
        self._cancelled = False

    # -- inspection ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._state >= _TRIGGERED

    @property
    def processed(self) -> bool:
        return self._state >= _PROCESSED

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def ok(self) -> bool:
        if self._state == _PENDING:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._state == _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering ---------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self._state = _TRIGGERED
        env = self.env
        env._push(env._now, PHASE_NORMAL, self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception; waiters will have it raised."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exc
        self._state = _TRIGGERED
        env = self.env
        env._push(env._now, PHASE_NORMAL, self)
        return self

    def cancel(self) -> None:
        """Discard a scheduled-but-unprocessed event (a heap-surgery-free
        cancellation flag).

        The queued entry stays put; the event loop drops it when reached — no
        callbacks run, the clock does not advance for it, and it never counts
        as a processed event.  Cancelling is only meaningful for events
        nothing waits on (cancel drops any callbacks silently); waiters that
        share an event must deregister first.  Cancelling a pending or
        already-processed event is a no-op.
        """
        if self._state == _TRIGGERED:
            self._cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        st = {_PENDING: "pending", _TRIGGERED: "triggered", _PROCESSED: "processed"}
        flag = " cancelled" if self._cancelled else ""
        return f"<{type(self).__name__} {st[self._state]}{flag} at {id(self):#x}>"


class Timeout(Event):
    """An event born triggered, firing a whole number of µs after creation
    (built by :meth:`Environment.timeout_us`)."""

    __slots__ = ()


class Initialize(Event):
    """Internal: first resume of a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        self.env = env
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self._defused = False
        self._cancelled = False
        self._state = _TRIGGERED
        env._push(env._now, PHASE_URGENT, self)


class Lane:
    """A shared scheduling-lane cell carried by a tree of processes.

    ``priority`` (when set) is a *floor* on the I/O priority of every device
    request issued under the lane: callers that would submit at a stronger
    (numerically lower) priority are demoted to the lane's value, while
    already-weaker requests are untouched.  Processes inherit their parent's
    lane cell at spawn time, so mutating the one cell re-prioritizes the
    whole in-flight tree — this is how a deadline-expired front-end request
    stops competing at FOREGROUND priority mid-execution.
    """

    __slots__ = ("priority",)

    def __init__(self, priority: Optional[int] = None) -> None:
        self.priority = priority

    def floor(self, priority: int) -> int:
        """Apply the lane to a call-site priority (identity when unset)."""
        if self.priority is not None and self.priority > priority:
            return self.priority
        return priority


class Process(Event):
    """A running generator; also an event that fires when the generator ends.

    The process yields :class:`Event` instances; when a yielded event is
    processed the generator is resumed with the event's value (or the event's
    exception is thrown in).
    """

    __slots__ = ("_generator", "_target", "name", "lane")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # lane inheritance: a process spawned from inside another process
        # shares its parent's lane cell (None for top-level processes)
        active = env._active_proc
        self.lane: Optional[Lane] = active.lane if active is not None else None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        return self._state == _PENDING

    def cancel_chain(self, cause: Any = None) -> None:
        """Interrupt the *deepest* process this one is (transitively) waiting
        on, so the exception unwinds through every intermediate frame in
        inner-to-outer order — each frame's ``with``/``finally`` cleanup runs
        and each intermediate process failure is consumed by its waiter.

        Used to cancel abandoned front-end read legs: queued resource claims
        are withdrawn (context managers release them) and pending timeouts
        cancelled, so no frame holds a device; a message already sent keeps
        its reserved NIC port time (bytes committed to the wire stay).  A
        frame waiting on a *condition* (AllOf/AnyOf) is interrupted itself;
        the condition's member processes are not cancelled (partial
        cancellation — simulated work already dispatched to other actors
        runs out, like real RPCs already on the wire).
        """
        proc: "Process" = self
        while isinstance(proc._target, Process) and proc._target.is_alive:
            proc = proc._target
        proc.interrupt(cause)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current sim time.

        The abandoned wait target is deregistered; an abandoned private
        :class:`Timeout` is cancelled outright so it never drains as a stale
        wakeup.
        """
        if self._state != _PENDING or self._generator is None:
            return  # already finished; interrupting a dead process is a no-op
        target = self._target
        if target is not None and target._state != _PROCESSED:
            cbs = target.callbacks
            try:
                cbs.remove(self._resume)
            except ValueError:
                pass
            if not cbs and isinstance(target, Timeout):
                target.cancel()
        self._target = None
        interrupt_ev = Event(self.env)
        interrupt_ev.callbacks.append(self._resume)
        interrupt_ev._ok = False
        interrupt_ev._value = Interrupt(cause)
        interrupt_ev._defused = True
        interrupt_ev._state = _TRIGGERED
        env = self.env
        env._push(env._now, PHASE_URGENT, interrupt_ev)

    def _resume(self, event: Event) -> None:
        gen = self._generator
        if gen is None:
            return  # stale wakeup: the generator already finished
        env = self.env
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
                self._finish(True, stop.value)
                break
            except BaseException as exc:
                self._generator = None
                self._finish(False, exc)
                break

            try:
                state = next_ev._state
                foreign = next_ev.env is not env
            except AttributeError:
                exc = SimulationError(
                    f"process {self.name!r} yielded non-event {next_ev!r}"
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
                # Already done: resume immediately with its outcome —
                # no event allocation, no heap round-trip.
                event = next_ev
                continue

            next_ev.callbacks.append(self._resume)
            self._target = next_ev
            break
        env._active_proc = None

    def _finish(self, ok: bool, value: Any) -> None:
        """The generator ended (``ok``) or raised ``value``: fire this
        process's own finish event."""
        if ok:
            self.succeed(value)
        else:
            self.fail(value)


class _Condition(Event):
    """Base for AllOf/AnyOf: waits on a set of events."""

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._count = 0
        for ev in self._events:
            if ev.env is not env:
                raise SimulationError("condition mixes environments")
        for ev in self._events:
            if ev._state == _PROCESSED:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)
        if not self._events and self._state == _PENDING:
            self.succeed({})

    def _collect(self) -> dict[Event, Any]:
        return {
            ev: ev._value
            for ev in self._events
            if ev._state >= _TRIGGERED and ev._ok
        }

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every event has fired; value is a dict event→value."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if not event._ok:
            # The condition consumes member failures even after it has
            # already triggered: when two branches fail (e.g. two parity
            # writes hitting one crashed node) the second failure must not
            # escape as an unhandled event and abort the whole simulation.
            event._defused = True
            if self._state == _PENDING:
                self.fail(event._value)
            return
        if self._state != _PENDING:
            return
        self._count += 1
        if self._count == len(self._events):
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Fires as soon as one event fires; value is a dict of fired events."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if not event._ok:
            event._defused = True
            if self._state == _PENDING:
                self.fail(event._value)
            return
        if self._state != _PENDING:
            return
        self.succeed(self._collect())


# -- fan-out -----------------------------------------------------------------
# ``spawn_fanout(env, legs)`` keeps the timing of
# ``env.all_of([env.process(leg) for leg in legs])`` and drops its per-leg
# scaffolding (an ``Initialize`` event, a finish event and an ``AllOf``
# membership check each): a k+m stripe fan-out schedules three events of
# scaffolding instead of ~2(k+m)+1, whatever its width.
#
# * One *starter* event (URGENT lane) begins every leg back-to-back: it
#   drains right after the spawning process suspends, the slot the first
#   ``Initialize`` would have taken, and the legs' first segments run
#   consecutively, as consecutive ``Initialize`` pops would have run them.
# * Each leg is a :class:`_Leg`, a :class:`Process` without those two
#   events, so every mid-leg event carries its resume callback in the queue
#   position the per-leg process's would have had.
# * The latch fires two same-tick hops after the final leg's last action
#   (a relay event, then the latch), matching finish event + ``AllOf``.  A
#   leg failure reaches the waiter two hops after the failing action, and
#   later failures are swallowed as a triggered ``AllOf`` defuses them.
#
# ``tests/test_sim_batch.py`` runs seeded leg programs through both.


class CountdownLatch(Event):
    """Fires when all of its fan-out's legs have finished (value ``None``),
    or fails with the first leg failure."""

    __slots__ = ("_remaining",)

    def __init__(self, env: "Environment", count: int) -> None:
        super().__init__(env)
        self._remaining = count  # legs left to finish; 0 once settled

    def _leg_finished(self, ok: bool, value: Any) -> None:
        if self._remaining <= 0:
            return  # already settled: a late failure is defused
        self._remaining = self._remaining - 1 if ok else 0
        if self._remaining == 0:
            relay = Event(self.env)
            relay.callbacks.append(self._relay)
            relay._ok = ok
            relay._value = value
            relay._defused = True
            relay._state = _TRIGGERED
            env = self.env
            env._push(env._now, PHASE_NORMAL, relay)

    def _relay(self, relay: Event) -> None:
        if relay._ok:
            self.succeed()
        else:
            self.fail(relay._value)


class _Leg(Process):
    """One leg of a :func:`spawn_fanout`: a :class:`Process` its fan-out's
    starter begins (no ``Initialize`` event) and whose end goes to the
    :class:`CountdownLatch` (no finish event; the return value is dropped,
    as ``AllOf`` callers drop the condition dict).

    Nothing yields or waits on a leg, so it sets only the process fields;
    the finish-event fields (``callbacks``, ``_value``, ``_ok``, ...) stay
    unset.  Setting them too measured ~0.3 µs more per leg, about 6 % of
    ``sim.probe_us_per_fanout_leg`` on a 2-vCPU host.
    """

    __slots__ = ("_latch",)

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        latch: CountdownLatch,
        lane: Optional[Lane],
    ) -> None:
        self.env = env
        self._state = _PENDING
        self._generator = generator
        self._target = None
        self.name = generator.__name__
        self.lane = lane
        self._latch = latch

    def _finish(self, ok: bool, value: Any) -> None:
        self._state = _PROCESSED
        self._latch._leg_finished(ok, value)


def spawn_fanout(env: "Environment", legs: list) -> CountdownLatch:
    """Run the generators ``legs`` concurrently; the returned latch fires
    when all are done — ``env.all_of([env.process(leg), ...])`` for callers
    that read no member value, in fewer events (see the comment above).

    Each leg inherits the spawning process's lane cell, as a child
    process does.
    """
    latch = CountdownLatch(env, len(legs))
    if not legs:
        # all_of([]) succeeds at construction and reaches the waiter one
        # hop later; mirror that
        latch.succeed()
        return latch
    active = env._active_proc
    lane = active.lane if active is not None else None

    def _start(starter: Event) -> None:
        # the processed starter is the (ok, None) every leg's first
        # resume sends
        for leg in legs:
            _Leg(env, leg, latch, lane)._resume(starter)

    starter = Event(env)
    starter.callbacks.append(_start)
    starter._state = _TRIGGERED
    env._push(env._now, PHASE_URGENT, starter)
    return latch


class Environment:
    """The simulation clock and event loop (integer-microsecond time)."""

    def __init__(self) -> None:
        self._now = 0
        self._heap: list[tuple[int, int, int, Event]] = []
        self._counter = 0
        self._steps = 0
        self._active_proc: Optional[Process] = None
        # One FIFO per phase (URGENT, NORMAL, LATE) holding every entry due
        # at ``_now``; the heap holds only later ticks (see ``_push``).
        self._lanes: tuple[deque[Event], deque[Event], deque[Event]] = (
            deque(), deque(), deque()
        )

    @property
    def now(self) -> float:
        """Current simulated time in seconds (``now_us / 1e6``)."""
        return self._now / 1e6

    @property
    def now_us(self) -> int:
        """Current simulated time in integer microseconds (native)."""
        return self._now

    @property
    def steps(self) -> int:
        """Events processed so far (cancelled entries do not count)."""
        return self._steps

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_proc

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout_us(self, delay_us: int, phase: int = PHASE_NORMAL) -> Timeout:
        """An event firing ``delay_us`` microseconds from now.

        ``phase`` selects the same-time lane; :data:`PHASE_LATE` wakeups
        sort after all normal work at their tick (used by maintenance
        pacing so background grants never preempt same-instant foreground
        events).
        """
        if delay_us < 0:
            raise ValueError(f"negative timeout delay {delay_us!r}us")
        # Inlined Event.__init__ + succeed: a Timeout is born triggered.
        ev = Timeout.__new__(Timeout)
        ev.env = self
        ev.callbacks = []
        ev._value = None
        ev._ok = True
        ev._defused = False
        ev._cancelled = False
        ev._state = _TRIGGERED
        self._push(self._now + delay_us, phase, ev)
        return ev

    def timeout_at_us(self, when_us: int) -> Event:
        """An event firing at the *absolute* simulated time ``when_us`` (no
        delay arithmetic at the call site).  Used by schedulers that hold
        wall-of-time plans, e.g. the fault injector's trigger list."""
        ev = Event(self)
        ev._state = _TRIGGERED
        self.schedule_at_us(ev, when_us)
        return ev

    def process(
        self, generator: Generator[Event, Any, Any], name: Optional[str] = None
    ) -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def _push(self, t_us: int, phase: int, event: Event) -> None:
        """The one enqueue: stamp ``seq``; an entry due now joins the tail
        of its phase lane, a later one goes on the heap."""
        seq = self._counter
        self._counter = seq + 1
        event._seq = seq
        if t_us == self._now:
            self._lanes[phase].append(event)
        else:
            heappush(self._heap, (t_us, phase, seq, event))

    def schedule_at_us(self, event: Event, when_us: int) -> None:
        """Schedule ``event`` at the absolute time ``when_us``.

        ``event`` must already be triggered-but-unscheduled by the caller
        (engine-internal use) or be an externally managed event; ``when_us``
        must not be in the past.
        """
        if when_us < self._now:
            raise ValueError(
                f"schedule_at_us({when_us}) is in the past (now_us={self._now})"
            )
        self._push(when_us, PHASE_NORMAL, event)

    def peek_us(self) -> Optional[int]:
        """Integer-µs time of the next live entry, or ``None`` if none
        (cancelled heads are discarded, as the run loop would): ``now_us``
        while a lane holds a live entry, else the heap's first live tick."""
        for lane in self._lanes:
            while lane and lane[0]._cancelled:
                lane.popleft()._state = _PROCESSED
            if lane:
                return self._now
        heap = self._heap
        while heap and heap[0][3]._cancelled:
            heappop(heap)[3]._state = _PROCESSED
        return heap[0][0] if heap else None

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until no entry is left, a deadline passes, or an event fires.

        ``until`` may be a deadline in seconds (see :func:`s_to_us`), an
        :class:`Event` (returns its value), or ``None`` (drain all events).

        When ``until`` is an event, the loop additionally drains events at
        the stop event's timestamp that were *scheduled before it* (smaller
        ``seq``), in (phase, seq) order, stopping at the first entry that
        is later-scheduled or later-timed.  Work enqueued at the same
        instant ahead of the stop event therefore completes before control
        returns — and :meth:`peek_us` afterwards reports either a later time or
        a same-time event scheduled after the stop.

        Each step pops the head of the lowest non-empty phase lane.  When
        all three are empty the clock moves to the heap's next live tick,
        once, and every heap entry for that tick moves into the lanes (in
        heap order, so each lane stays in ``seq`` order).  Entries left at
        ``now`` by an event-mode stop or an unhandled failure stay in their
        lanes, where the next ``run()`` starts.
        """
        heap = self._heap
        lanes = self._lanes
        urgent, normal, late = lanes
        stop: Optional[Event] = None
        deadline: Optional[int] = None
        if until is not None:
            if isinstance(until, Event):
                stop = until
                if stop.env is not self:
                    raise SimulationError("`until` belongs to another environment")
                if stop._state == _PROCESSED:
                    if not stop._ok:
                        raise stop._value
                    return stop._value
            else:
                u = float(until)
                if u != _INF:
                    deadline = s_to_us(u)
                    if deadline < self._now:
                        raise ValueError(
                            f"until={u} is in the past (now={self._now / 1e6})"
                        )
        steps = 0
        limit: Optional[int] = None  # seq bound for the event-mode tie drain
        try:
            while True:
                if urgent:
                    lane = urgent
                elif normal:
                    lane = normal
                elif late:
                    lane = late
                else:
                    if limit is not None:
                        break  # the stop's tick is drained
                    # Scrub cancelled entries so a timestamp with no live
                    # event never advances the clock.
                    while heap and heap[0][3]._cancelled:
                        heappop(heap)[3]._state = _PROCESSED
                    if not heap:
                        if stop is not None:
                            raise SimulationError(
                                "simulation ran out of events before `until` fired"
                            )
                        break
                    t = heap[0][0]
                    if deadline is not None and t > deadline:
                        break
                    self._now = t
                    while heap and heap[0][0] == t:
                        _t, phase, _seq, event = heappop(heap)
                        lanes[phase].append(event)
                    continue
                event = lane.popleft()
                if limit is not None and event._seq >= limit:
                    lane.appendleft(event)
                    break
                if event._cancelled:
                    event._state = _PROCESSED
                    continue
                steps += 1
                callbacks = event.callbacks
                event.callbacks = []
                event._state = _PROCESSED
                for cb in callbacks:
                    cb(event)
                if not event._ok and not event._defused:
                    raise event._value  # unhandled failure
                if stop is not None and stop._state == _PROCESSED:
                    # Tie-break drain: finish same-timestamp events that
                    # were scheduled before the stop event (see
                    # docstring).  An event finished inline (never
                    # scheduled) has no seq stamp and drains nothing.
                    limit = getattr(stop, "_seq", -1)
                    stop = None
        finally:
            self._steps += steps
        if limit is not None:
            stop_ev = until  # type: ignore[assignment]
            if not stop_ev._ok:
                raise stop_ev._value
            return stop_ev._value
        if deadline is not None:
            self._now = deadline
        return None
