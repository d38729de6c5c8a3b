"""Property test: the optimized engine preserves seed-engine semantics.

A reference engine — a verbatim-style reimplementation of the seed's simple
heap loop (tuple heap, per-event ``step()``, no inline fast paths, no
cancellation) — runs the same randomized process programs as the optimized
engine.  For the core primitives (timeouts, events, processes, AllOf/AnyOf)
the two must produce identical traces: same (time, tag) sequence, same
final clock.

A second property extends the determinism regression to the sweep layer:
randomized experiment cells replayed twice (and through the parallel
executor) produce the same canonical digest.
"""

import heapq
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import PHASE_LATE, PHASE_NORMAL, PHASE_URGENT, Environment


# --------------------------------------------------------- reference engine
# The seed engine, stripped to the primitives the property exercises.


class _RefEvent:
    def __init__(self, env):
        self.env = env
        self.callbacks = []
        self.value = None
        self.ok = True
        self.state = 0  # 0 pending, 1 triggered, 2 processed

    def succeed(self, value=None):
        assert self.state == 0
        self.ok = True
        self.value = value
        self.state = 1
        self.env.schedule(self)
        return self


class _RefTimeout(_RefEvent):
    def __init__(self, env, delay, value=None, phase=1):
        super().__init__(env)
        self.ok = True
        self.value = value
        self.state = 1
        env.schedule(self, delay=delay, priority=phase)


class _RefProcess(_RefEvent):
    def __init__(self, env, gen):
        super().__init__(env)
        self.gen = gen
        init = _RefEvent(env)
        init.callbacks.append(self._resume)
        init.ok = True
        init.state = 1
        env.schedule(init, priority=0)

    def _resume(self, event):
        while True:
            try:
                next_ev = self.gen.send(event.value)
            except StopIteration as stop:
                self.state = 0
                self.succeed(stop.value)
                return
            if next_ev.state == 2:
                event = next_ev
                continue
            next_ev.callbacks.append(self._resume)
            return


class _RefAllOf(_RefEvent):
    def __init__(self, env, events):
        super().__init__(env)
        self.events = list(events)
        self.count = 0
        for ev in self.events:
            if ev.state == 2:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)
        if not self.events and self.state == 0:
            self.succeed({})

    def _check(self, event):
        if self.state != 0:
            return
        self.count += 1
        if self.count == len(self.events):
            self.succeed(None)


class _RefAnyOf(_RefEvent):
    def __init__(self, env, events):
        super().__init__(env)
        self.events = list(events)
        for ev in self.events:
            if ev.state == 2:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _check(self, event):
        if self.state == 0:
            self.succeed(None)


class _RefEnvironment:
    def __init__(self):
        self.now = 0.0
        self.heap = []
        self.counter = itertools.count()

    def schedule(self, event, delay=0.0, priority=1):
        heapq.heappush(
            self.heap, (self.now + delay, priority, next(self.counter), event)
        )

    def timeout(self, delay, value=None, phase=1):
        return _RefTimeout(self, delay, value, phase)

    def event(self):
        return _RefEvent(self)

    def process(self, gen):
        return _RefProcess(self, gen)

    def all_of(self, events):
        return _RefAllOf(self, events)

    def any_of(self, events):
        return _RefAnyOf(self, events)

    def run(self):
        while self.heap:
            when, _prio, _tie, event = heapq.heappop(self.heap)
            self.now = when
            callbacks, event.callbacks = event.callbacks, []
            event.state = 2
            for cb in callbacks:
                cb(event)


# ------------------------------------------------------------ random program
# One program description drives both engines.  Actions reference events by
# index into a shared pool so the two runs build isomorphic structures.


def _make_program(seed: int):
    rng = random.Random(seed)
    n_procs = rng.randint(4, 12)
    n_events = rng.randint(2, 5)
    program = []
    for p in range(n_procs):
        steps = []
        for _ in range(rng.randint(1, 8)):
            roll = rng.random()
            if roll < 0.45:
                steps.append(("sleep", round(rng.uniform(0.0, 3.0), 3)))
            elif roll < 0.6:
                steps.append(("fire", rng.randrange(n_events)))
            elif roll < 0.75:
                steps.append(("wait", rng.randrange(n_events)))
            elif roll < 0.9:
                steps.append(
                    ("all", [round(rng.uniform(0.0, 2.0), 3) for _ in range(2)])
                )
            else:
                steps.append(
                    ("any", [round(rng.uniform(0.0, 2.0), 3) for _ in range(2)])
                )
        program.append(steps)
    return program, n_events


def _drive(env, timeout, program, n_events, trace):
    """Run ``program`` on ``env``; ``timeout(seconds)`` builds its delays."""
    events = [env.event() for _ in range(n_events)]
    fired = [False] * n_events

    def proc(pid, steps):
        for op, arg in steps:
            if op == "sleep":
                yield timeout(arg)
            elif op == "fire":
                if not fired[arg]:
                    fired[arg] = True
                    events[arg].succeed((pid, arg))
                yield timeout(0)
            elif op == "wait":
                # only wait on events some process will (or did) fire, else
                # the run would deadlock identically but trace less
                if fired[arg] or any(
                    ("fire", arg) in s for s in program
                ):
                    yield events[arg]
                else:
                    yield timeout(0)
            elif op == "all":
                yield env.all_of([timeout(d) for d in arg])
            elif op == "any":
                yield env.any_of([timeout(d) for d in arg])
            trace.append((round(env.now, 9), pid, op))

    for pid, steps in enumerate(program):
        env.process(proc(pid, steps))
    env.run()
    return trace


@pytest.mark.parametrize("seed", range(8))
def test_randomized_program_matches_reference_engine(seed):
    program, n_events = _make_program(seed)

    ref_env = _RefEnvironment()
    ref_trace = _drive(ref_env, ref_env.timeout, program, n_events, [])

    env = Environment()
    opt_trace = _drive(
        env, lambda d: env.timeout_us(round(d * 1e6)), program, n_events, []
    )

    assert opt_trace == ref_trace
    # The integer-µs core accumulates delays exactly; the float reference
    # drifts by ulps (e.g. 20.296999999999997 vs 20.297).  Compare on the
    # microsecond grid, where both must agree.
    assert env.now_us == round(ref_env.now * 1e6)
    assert env.now == pytest.approx(ref_env.now, abs=1e-9)


# ------------------------------------------------ phased same-tick programs
# Dense same-tick programs over all three phases: sleeps of 0-3 µs in a
# random phase, child spawns, and a spawn followed at once by a zero-delay
# timeout of any phase (the child's URGENT initialisation and the timeout
# then share a tick and, for an URGENT timeout, a phase).  The reference
# runs on integer µs, since float keys would split the ticks apart.

_PHASES = (PHASE_URGENT, PHASE_NORMAL, PHASE_LATE)


def _make_phased_program(seed: int):
    rng = random.Random(seed)
    program = []
    for _ in range(rng.randint(3, 8)):
        steps = []
        for _ in range(rng.randint(1, 8)):
            op = rng.choice(("sleep", "sleep", "spawn", "spawn+zero"))
            # (delay, phase) of the sleep, or of the spawned child's one sleep
            steps.append((op, rng.randint(0, 3), rng.choice(_PHASES)))
        program.append(steps)
    return program


def _drive_phased(env, timeout, now_us, program):
    """Run ``program`` on ``env``; ``timeout(delay_us, phase)`` builds its
    waits and ``now_us()`` reads the clock."""
    trace = []
    children = itertools.count()

    def child(cid, delay, phase):
        trace.append((now_us(), cid, "init"))
        yield timeout(delay, phase)
        trace.append((now_us(), cid, "done"))

    def proc(pid, steps):
        for op, delay, phase in steps:
            if op == "sleep":
                yield timeout(delay, phase)
            else:
                env.process(child(f"c{next(children)}", delay, phase))
                if op == "spawn+zero":
                    yield timeout(0, phase)
            trace.append((now_us(), pid, op))

    for pid, steps in enumerate(program):
        env.process(proc(pid, steps))
    env.run()
    return trace


@pytest.mark.parametrize("seed", range(32))
def test_randomized_phased_program_matches_reference_engine(seed):
    program = _make_phased_program(seed)

    ref_env = _RefEnvironment()
    ref_env.now = 0  # integer µs
    ref_trace = _drive_phased(
        ref_env,
        lambda d, phase: ref_env.timeout(d, phase=phase),
        lambda: ref_env.now,
        program,
    )

    env = Environment()
    opt_trace = _drive_phased(
        env,
        lambda d, phase: env.timeout_us(d, phase=phase),
        lambda: env.now_us,
        program,
    )

    assert opt_trace == ref_trace
    assert env.now_us == ref_env.now


# ------------------------------------------- integer-µs key-order properties
# The engine orders the heap by (t_us, phase, seq); the seed engine ordered
# by (float_t, priority, tie).  For any schedule whose times sit on the µs
# grid — which is every time the engine can represent — the two orders must
# be the same permutation.

_SCHEDULE = st.lists(
    st.tuples(
        # up to ~11.5 simulated days in µs: far beyond any scenario, far
        # below where float64 could start conflating distinct µs values
        st.integers(min_value=0, max_value=10**12),
        st.sampled_from([PHASE_URGENT, PHASE_NORMAL, PHASE_LATE]),
    ),
    min_size=1,
    max_size=200,
)


@given(_SCHEDULE)
@settings(deadline=None)
def test_int_key_order_reproduces_float_reference_order(entries):
    int_keys = [(t_us, phase, seq) for seq, (t_us, phase) in enumerate(entries)]
    float_keys = [
        (t_us / 1e6, phase, seq) for seq, (t_us, phase) in enumerate(entries)
    ]
    assert sorted(range(len(entries)), key=int_keys.__getitem__) == sorted(
        range(len(entries)), key=float_keys.__getitem__
    )


@given(_SCHEDULE)
@settings(deadline=None, max_examples=50)
def test_engine_fires_in_float_reference_order(entries):
    """Same property end-to-end: timeouts scheduled with explicit phases
    fire in exactly the order the seed's float keys would have produced."""
    env = Environment()
    order = []
    for i, (t_us, phase) in enumerate(entries):
        timeout = env.timeout_us(t_us, phase=phase)
        timeout.callbacks.append(lambda _ev, i=i: order.append(i))
    env.run()
    expected = sorted(
        range(len(entries)),
        key=lambda i: (entries[i][0] / 1e6, entries[i][1], i),
    )
    assert order == expected


def test_hours_long_accumulation_stays_exact():
    """An odd per-tick µs count repeated for ~28 simulated hours: integer
    time accumulates exactly; a float clock would have drifted off-grid."""
    tick_us = 3_600_000_007  # one hour and seven microseconds
    env = Environment()

    def ticker():
        for _ in range(28):
            yield env.timeout_us(tick_us)

    env.run(env.process(ticker()))
    assert env.now_us == 28 * tick_us
    assert env.now == (28 * tick_us) / 1e6


def test_century_horizon_fits_the_grid():
    """Very long horizons (100 simulated years ≈ 3.2e15 µs) stay well below
    2^53, so both the integer clock and the float-seconds view stay exact."""
    century_us = 100 * 365 * 24 * 3600 * 10**6
    env = Environment()
    fired = []
    timeout = env.timeout_us(century_us)
    timeout.callbacks.append(lambda _ev: fired.append(env.now_us))
    env.run()
    assert fired == [century_us]
    assert env.now_us == century_us
    assert env.now == century_us / 1e6


# ----------------------------------------------- sweep determinism extension


def test_randomized_cells_digest_stable_across_executor_modes():
    """Determinism regression extended to the sweep executor: a randomized
    cell produces one digest whether run inline, serially, or in a worker
    process."""
    from repro.fault.digest import cluster_digest
    from repro.harness.runner import ExperimentConfig, run_experiment
    from repro.harness.sweep import SweepExecutor

    rng = random.Random(20250728)
    cfgs = []
    for _ in range(2):
        cfgs.append(
            ExperimentConfig(
                method=rng.choice(["tsue", "pl", "fo"]),
                trace=rng.choice(["tencloud", "alicloud"]),
                k=4,
                m=2,
                n_osds=10,
                n_clients=rng.choice([2, 4]),
                n_ops=rng.randint(80, 140),
                block_size=1 << 16,
                log_unit_size=1 << 17,
                n_files=2,
                stripes_per_file=2,
                seed=rng.randrange(1 << 16),
            )
        )
    inline_digests = [
        cluster_digest(run_experiment(cfg, keep_cluster=True).ecfs)
        for cfg in cfgs
    ]
    # the executor cannot return clusters; compare the observables it does
    # return against fresh inline runs (twice, to pin determinism)
    serial = SweepExecutor(workers=1).run(cfgs)
    parallel = SweepExecutor(workers=2).run(cfgs)
    for cfg, s, p in zip(cfgs, serial, parallel):
        assert s.iops == p.iops
        assert s.latency == p.latency
        assert s.elapsed_sim == p.elapsed_sim
        assert s.workload == p.workload
    rerun_digests = [
        cluster_digest(run_experiment(cfg, keep_cluster=True).ecfs)
        for cfg in cfgs
    ]
    assert inline_digests == rerun_digests
