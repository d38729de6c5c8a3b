"""Unit tests for the discrete-event engine."""

import ast
import pathlib

import pytest

import repro.sim
from repro.sim import (
    PHASE_LATE,
    PHASE_NORMAL,
    PHASE_URGENT,
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
)


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout_us(1_500_000)
        yield env.timeout_us(500_000)

    env.process(proc())
    env.run()
    assert env.now == pytest.approx(2.0)


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout_us(-1)


def test_event_succeed_wakes_waiter():
    env = Environment()
    ev = env.event()
    got = []

    def waiter():
        got.append((yield ev))

    def firer():
        yield env.timeout_us(3_000_000)
        ev.succeed(42)

    env.process(waiter())
    env.process(firer())
    env.run()
    assert got == [42]
    assert env.now == pytest.approx(3.0)


def test_event_double_trigger_raises():
    env = Environment()
    ev = env.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_event_fail_propagates_into_process():
    env = Environment()
    ev = env.event()
    caught = []

    def proc():
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(proc())
    ev.fail(RuntimeError("boom"))
    env.run()
    assert caught == ["boom"]


def test_unhandled_failure_raises_from_run():
    env = Environment()

    def proc():
        raise ValueError("unhandled")
        yield  # pragma: no cover

    env.process(proc())
    with pytest.raises(ValueError):
        env.run()


def test_process_return_value_via_yield():
    env = Environment()
    results = []

    def child():
        yield env.timeout_us(1_000_000)
        return "done"

    def parent():
        value = yield env.process(child())
        results.append(value)

    env.process(parent())
    env.run()
    assert results == ["done"]


def test_run_until_event_returns_value():
    env = Environment()

    def child():
        yield env.timeout_us(2_000_000)
        return 99

    proc = env.process(child())
    assert env.run(proc) == 99


def test_run_until_time_stops_clock():
    env = Environment()

    def ticker():
        while True:
            yield env.timeout_us(1_000_000)

    env.process(ticker())
    env.run(until=5.5)
    assert env.now == pytest.approx(5.5)


def test_run_until_past_time_raises():
    env = Environment()
    env.run(until=1.0)
    with pytest.raises(ValueError):
        env.run(until=0.5)


def test_all_of_waits_for_every_event():
    env = Environment()
    done = []

    def proc():
        t1 = env.timeout_us(1_000_000)
        t2 = env.timeout_us(3_000_000)
        results = yield env.all_of([t1, t2])
        done.append(set(results) == {t1, t2})

    env.process(proc())
    env.run()
    assert done == [True]
    assert env.now == pytest.approx(3.0)


def test_any_of_fires_on_first():
    env = Environment()
    times = []

    def proc():
        yield env.any_of([env.timeout_us(1_000_000), env.timeout_us(5_000_000)])
        times.append(env.now)

    env.process(proc())
    env.run()
    assert times == [pytest.approx(1.0)]


def test_all_of_empty_fires_immediately():
    env = Environment()
    done = []

    def proc():
        yield env.all_of([])
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [0.0]


def test_interrupt_raises_in_process():
    env = Environment()
    caught = []

    def victim():
        try:
            yield env.timeout_us(100_000_000)
        except Interrupt as intr:
            caught.append((intr.cause, env.now))

    def attacker(proc):
        yield env.timeout_us(1_000_000)
        proc.interrupt("failure-injection")

    proc = env.process(victim())
    env.process(attacker(proc))
    env.run()
    # interrupt delivered at t=1 (the abandoned timeout still drains later)
    assert caught == [("failure-injection", 1.0)]


def test_interrupt_dead_process_is_noop():
    env = Environment()

    def quick():
        yield env.timeout_us(0)

    proc = env.process(quick())
    env.run()
    proc.interrupt()  # must not raise


def test_yielding_non_event_fails_process():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError):
        env.run()


def test_cross_environment_event_rejected():
    env1, env2 = Environment(), Environment()
    foreign = env2.event()

    def proc():
        yield foreign

    env1.process(proc())
    foreign.succeed()
    with pytest.raises(SimulationError):
        env1.run()


def test_event_ordering_fifo_at_same_time():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout_us(1_000_000)
        order.append(tag)

    for tag in "abc":
        env.process(proc(tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_peek_us_reports_next_event_time():
    env = Environment()
    env.timeout_us(7_000_000)
    assert env.peek_us() == 7_000_000
    env.run()
    assert env.peek_us() is None


# ---------------------------------------------------------------- cancellation


def test_cancelled_timeout_never_fires_nor_advances_clock():
    env = Environment()
    t = env.timeout_us(5_000_000)
    t.cancel()
    assert t.cancelled
    env.run()
    # the cancelled placeholder is discarded silently: no callback ran and
    # the clock never advanced to its timestamp
    assert env.now == 0.0
    assert env.peek_us() is None


def test_cancel_drops_waiter_wakeups():
    """No wakeups after cancel: a condition holding a cancelled timeout only
    fires through its other members."""
    env = Environment()
    woke = []

    def waiter(ev, t):
        yield env.any_of([ev, t])
        woke.append(env.now)

    ev = env.event()
    t = env.timeout_us(1_000_000)
    env.process(waiter(ev, t))
    t.cancel()

    def firer():
        yield env.timeout_us(3_000_000)
        ev.succeed()

    env.process(firer())
    env.run()
    assert woke == [3.0]  # not 1.0: the cancelled timeout never woke anyone


def test_cancel_pending_and_processed_is_noop():
    env = Environment()
    ev = env.event()
    ev.cancel()  # pending: no-op
    assert not ev.cancelled
    t = env.timeout_us(0)
    env.run()
    t.cancel()  # processed: no-op
    assert not t.cancelled


def test_interrupt_cancels_abandoned_timeout():
    """The interrupted process's private timeout is cancelled outright, so
    the simulation does not drain a stale wakeup at t=100."""
    env = Environment()
    caught = []

    def victim():
        try:
            yield env.timeout_us(100_000_000)
        except Interrupt as intr:
            caught.append((intr.cause, env.now))

    def attacker(proc):
        yield env.timeout_us(1_000_000)
        proc.interrupt("die")

    proc = env.process(victim())
    env.process(attacker(proc))
    env.run()
    assert caught == [("die", 1.0)]
    assert env.now == 1.0  # seed drained the abandoned timeout at t=100
    assert env.peek_us() is None


def test_steps_counts_processed_events_only():
    env = Environment()
    t = env.timeout_us(1_000_000)
    env.timeout_us(2_000_000)
    t.cancel()
    env.run()
    assert env.steps == 1  # the cancelled entry does not count


# ------------------------------------------------------- run(until=Event) ties


def test_run_until_event_drains_earlier_same_time_events():
    """Documented tie-break: when the stop event fires at time T, remaining
    heap entries at T that were *scheduled before it* (smaller tie counter)
    are drained before run() returns; later-scheduled ones stay pending and
    peek() reports them."""
    env = Environment()
    order = []
    t_a = env.timeout_us(1_000_000)  # scheduled before the stop event (smaller tie)
    t_b = env.timeout_us(1_000_000)

    def logger(tag, t):
        yield t
        order.append(tag)

    env.process(logger("a", t_a))
    env.process(logger("b", t_b))
    # a priority-0 stop event at t=1 pops ahead of the same-time timeouts
    # even though they were scheduled first — the drain still runs them
    stop = env.timeout_us(1_000_000, phase=PHASE_URGENT)
    env.run(stop)
    assert order == ["a", "b"]
    # the logger processes' completion events were scheduled *after* the
    # stop event and are still pending at t=1
    assert env.peek_us() == 1_000_000
    env.run()
    assert env.now == pytest.approx(1.0)


def test_timeout_at_us_fires_at_absolute_time():
    env = Environment()
    seen = []

    def proc():
        yield env.timeout_us(1_000)
        yield env.timeout_at_us(2_500)
        seen.append(env.now_us)

    env.process(proc())
    env.run()
    assert seen == [2_500]
    with pytest.raises(ValueError):
        env.timeout_at_us(2_499)  # in the past


def test_run_until_already_processed_event_returns_value():
    env = Environment()
    t = env.event().succeed("x")
    env.run()
    assert t.processed
    assert env.run(until=t) == "x"


def test_schedule_at_us_absolute_time():
    env = Environment()
    ev = env.event()
    ev._ok = True
    ev._state = 1
    env.schedule_at_us(ev, 4_500_000)
    env.run()
    assert env.now_us == 4_500_000
    assert env.now == pytest.approx(4.5)
    with pytest.raises(ValueError):
        env.schedule_at_us(env.event(), 1_000_000)  # in the past


# ------------------------------------------------- same-tick order contract
# Every entry due at the current tick fires in (phase, seq) order, however
# it was enqueued: spawned, timed out, scheduled at an absolute time, or
# left over from a run() that returned mid-tick.


def _triggered(env):
    ev = env.event()
    ev._ok = True
    ev._state = 1  # triggered, not yet scheduled
    return ev


def test_spawn_then_zero_delay_urgent_fire_in_schedule_order():
    """A process spawned before a zero-delay URGENT timeout, in the same
    callback, initialises first: both are URGENT at the same tick, so
    ``seq`` decides."""
    env = Environment()
    order = []

    def child():
        order.append("init")
        yield env.timeout_us(0)

    def parent():
        yield env.timeout_us(5)
        env.process(child())
        ev = env.timeout_us(0, phase=PHASE_URGENT)
        ev.callbacks.append(lambda _ev: order.append("urgent-timeout"))

    env.process(parent())
    env.run()
    assert order == ["init", "urgent-timeout"]


def _tagged(env, order, tag, delay_us=0, phase=PHASE_NORMAL):
    ev = env.timeout_us(delay_us, phase=phase)
    ev.callbacks.append(lambda _ev: order.append((env.now_us, tag)))
    return ev


class _Boom(Exception):
    pass


def test_mid_tick_leftovers_resume_in_schedule_order():
    """After run() returns mid-tick — an event-mode stop, or an unhandled
    failure — the rest of that tick is still due now, and the next run()
    fires it in (phase, seq) order before any later tick."""
    # event-mode stop: the stop drains what was scheduled before it
    env = Environment()
    order = []
    stop = _triggered(env)
    stop.callbacks.append(lambda _ev: order.append((env.now_us, "stop")))

    def setup():
        yield env.timeout_us(5)
        _tagged(env, order, "u1", phase=PHASE_URGENT)
        _tagged(env, order, "n1")
        env.schedule_at_us(stop, env.now_us)
        _tagged(env, order, "l1", phase=PHASE_LATE)
        _tagged(env, order, "n2")
        _tagged(env, order, "u2", phase=PHASE_URGENT)
        _tagged(env, order, "later", delay_us=1, phase=PHASE_URGENT)

    env.process(setup())
    env.run(stop)
    assert order == [(5, "u1"), (5, "u2"), (5, "n1"), (5, "stop")]
    assert env.peek_us() == env.now_us == 5
    _tagged(env, order, "u3", phase=PHASE_URGENT)  # enqueued between runs
    env.run()
    assert [tag for _t, tag in order[4:]] == ["u3", "n2", "l1", "later"]
    assert order[-1] == (6, "later")

    # unhandled failure: the failing event's tick is resumed the same way
    env = Environment()
    order = []

    def failing():
        yield env.timeout_us(5)
        _tagged(env, order, "u1", phase=PHASE_URGENT)
        _tagged(env, order, "n1")
        env.event().fail(_Boom())
        _tagged(env, order, "l1", phase=PHASE_LATE)
        _tagged(env, order, "n2")
        _tagged(env, order, "later", delay_us=1)

    env.process(failing())
    with pytest.raises(_Boom):
        env.run()
    assert order == [(5, "u1"), (5, "n1")]
    assert env.peek_us() == env.now_us == 5
    env.run()
    assert order[2:] == [(5, "n2"), (5, "l1"), (6, "later")]


# Entries that only order something other than the event queue.
_OTHER_HEAPS = {("resources.py", "Request.__init__")}  # a Resource's wait queue
_ENQUEUE_OWNERS = {("core.py", "Environment._push"), ("core.py", "Environment.__init__")}


def _scoped_nodes(path):
    """``(file, qualname)`` and node for every AST node of ``path``, the
    qualname naming the innermost enclosing class or function."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                yield from visit(child, scope + [child.name])
                continue
            yield (path.name, ".".join(scope)), child
            yield from visit(child, scope)

    return visit(ast.parse(path.read_text(), str(path)), [])


def _enqueue_sites(path):
    """``(file, qualname, line)`` of every ``heappush`` call and every
    assignment to a ``_counter`` / ``_seq`` attribute in ``path``."""
    sites = []
    for where, node in _scoped_nodes(path):
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", "")
            if name == "heappush":
                sites.append(where + (node.lineno,))
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
            else []
        )
        if any(
            isinstance(t, ast.Attribute) and t.attr in ("_counter", "_seq")
            for t in targets
        ):
            sites.append(where + (node.lineno,))
    return sites


def test_push_is_the_only_enqueue():
    """One enqueue path: ``Environment._push`` is the only code under
    ``repro/sim`` that pushes onto the event heap or stamps ``seq``, so
    every way of scheduling an event obeys the same (phase, seq) rule."""
    sim = pathlib.Path(repro.sim.__file__).parent
    sites = [s for p in sorted(sim.glob("*.py")) for s in _enqueue_sites(p)]
    stray = [s for s in sites if s[:2] not in _ENQUEUE_OWNERS | _OTHER_HEAPS]
    assert not stray, stray
    # the guard sees the owner's own push and stamp
    assert {s[:2] for s in sites} >= {("core.py", "Environment._push")}


def test_process_resume_is_the_only_generator_driver():
    """One resume loop: ``Process._resume`` is the only code under
    ``repro/sim`` that reads a generator's ``send`` or ``throw``, so a
    fan-out leg runs through the same send/throw loop as any process."""
    sim = pathlib.Path(repro.sim.__file__).parent
    sites = [
        where + (node.lineno,)
        for p in sorted(sim.glob("*.py"))
        for where, node in _scoped_nodes(p)
        if isinstance(node, ast.Attribute) and node.attr in ("send", "throw")
    ]
    assert {s[:2] for s in sites} == {("core.py", "Process._resume")}, sites


def _is_call_to(node, attr):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == attr
    )


def _process_list(node):
    elts = (
        [node.elt] if isinstance(node, ast.ListComp)
        else node.elts if isinstance(node, ast.List)
        else []
    )
    return bool(elts) and all(_is_call_to(e, "process") for e in elts)


def _discarded_process_all_ofs(name, source):
    """``name:line`` of every statement ``yield <env>.all_of(xs)`` that drops
    the value, ``xs`` a list of ``.process(...)`` calls built in place or
    bound to a local name of the same function."""
    sites = set()
    for fn in ast.walk(ast.parse(source, name)):
        if not isinstance(fn, ast.FunctionDef):
            continue
        lists = {
            target.id
            for node in ast.walk(fn)
            if isinstance(node, ast.Assign) and _process_list(node.value)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(fn):
            if not (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Yield)
                and _is_call_to(node.value.value, "all_of")
            ):
                continue
            arg = node.value.value.args[0]
            if _process_list(arg) or (isinstance(arg, ast.Name) and arg.id in lists):
                sites.add(f"{name}:{node.lineno}")
    return sorted(sites)


_DISCARDING_IDIOMS = """
def flush(env, legs):
    jobs = [env.process(leg) for leg in legs]
    if jobs:
        yield env.all_of(jobs)
    yield env.all_of([env.process(leg) for leg in legs])
    values = yield env.all_of(jobs)
    yield env.all_of(env.live_processes)
"""


def test_spawn_fanout_is_the_only_fan_out_whose_values_nobody_reads():
    """One fan-out: no code under ``src/repro`` yields ``all_of`` over
    processes it just spawned only to drop the values; such a fan-out is
    ``spawn_fanout``.  ``AllOf`` stays where the values are read or the
    processes are held elsewhere (degraded reads, ``FrontEnd.quiesce``,
    ``FaultInjector.done``, ``TraceReplayer``)."""
    root = pathlib.Path(repro.__file__).parent
    sites = [
        site
        for p in sorted(root.rglob("*.py"))
        for site in _discarded_process_all_ofs(
            str(p.relative_to(root)), p.read_text()
        )
    ]
    assert not sites, sites
    # the guard sees both spellings of the idiom, and only those
    assert _discarded_process_all_ofs("idioms", _DISCARDING_IDIOMS) == [
        "idioms:5",
        "idioms:6",
    ]
