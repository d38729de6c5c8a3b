"""``spawn_fanout`` against the idiom it replaces.

``spawn_fanout(env, legs)`` promises the timing of
``env.all_of([env.process(leg) for leg in legs])`` with fewer scheduled
events.  ``Process`` and ``AllOf`` stay in :mod:`repro.sim.core`, so they
are the reference: the same seeded leg programs run through both and must
finish at the same tick, run every leg side effect in the same order at
the same ticks, and deliver the same failure to the waiter.  Besides plain
timeouts and a bare ``Resource``, legs move bytes through the real network
timing model (``NetworkFabric.transfer`` between shared NICs, whose TX / RX
port clocks serialize them) and do I/O through the real device timing model
(``StorageDevice.submit`` on a shared 4-channel SSD, foreground and
background, whose sequentiality classification also depends on the order
the legs reach it).
"""

import random

import pytest

from repro.net.fabric import NetworkFabric
from repro.sim import Environment, Resource, spawn_fanout
from repro.storage.base import IOKind, IOPriority, IORequest
from repro.storage.ssd import SSDevice

_NODES = ("n0", "n1", "n2")


def _per_leg(env, legs):
    return env.all_of([env.process(leg) for leg in legs])


_STEP_KINDS = (
    ["timeout"] * 9 + ["hold"] * 6 + ["transfer"] * 4 + ["io"] * 4
    + ["fanout"] * 3 + ["raise"]
)


def _random_program(rng: random.Random, depth: int = 0) -> list:
    """A leg body: timeouts (zero-length included, for same-tick ordering),
    holds on the shared resource, transfers, device I/Os, nested fan-outs,
    and the odd raise."""
    program = []
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(_STEP_KINDS)
        if kind == "fanout" and depth < 2:
            width = rng.randint(0, 3)
            program.append(
                ("fanout", [_random_program(rng, depth + 1) for _ in range(width)])
            )
        elif kind == "hold":
            program.append(("hold", rng.choice([0, 2, 5])))
        elif kind == "transfer":
            src, dst = rng.sample(_NODES, 2)
            program.append(("transfer", src, dst, rng.choice([0, 4096, 65536])))
        elif kind == "io":
            program.append(
                (
                    "io",
                    rng.choice([IOKind.READ, IOKind.WRITE]),
                    rng.choice([0, 4096, 8192, 1 << 20]),
                    rng.choice([4096, 65536]),
                    rng.choice(["a", "b"]),
                    rng.choice([IOPriority.FOREGROUND, IOPriority.BACKGROUND]),
                )
            )
        elif kind == "raise":
            program.append(("raise",))
        else:
            program.append(("timeout", rng.choice([0, 0, 1, 3, 7])))
    return program


def _seeded_programs(seed: int) -> list:
    rng = random.Random(seed)
    return [_random_program(rng) for _ in range(rng.randint(1, 5))]


def _run(programs: list, fan) -> tuple:
    env = Environment()
    resource = Resource(env, capacity=1)
    net = NetworkFabric(env)
    for node in _NODES:
        net.add_node(node)
    ssd = SSDevice(env, "ssd0")
    log: list = []

    def leg(tag: str, program: list):
        for i, step in enumerate(program):
            log.append((tag, i, step[0], env.now_us))
            if step[0] == "timeout":
                yield env.timeout_us(step[1])
            elif step[0] == "hold":
                with resource.request() as grant:
                    yield grant
                    log.append((tag, i, "granted", env.now_us))
                    yield env.timeout_us(step[1])
            elif step[0] == "transfer":
                yield from net.transfer(*step[1:])
            elif step[0] == "io":
                kind, offset, size, stream, priority = step[1:]
                yield from ssd.submit(
                    IORequest(kind, offset, size, stream=stream, priority=priority)
                )
            elif step[0] == "fanout":
                yield fan(
                    env,
                    [leg(f"{tag}.{n}", sub) for n, sub in enumerate(step[1])],
                )
            else:
                raise ValueError(f"leg {tag} step {i}")
        log.append((tag, len(program), "done", env.now_us))

    outcome = []

    def waiter():
        try:
            yield fan(env, [leg(str(n), p) for n, p in enumerate(programs)])
            outcome.append(("ok", env.now_us))
        except ValueError as exc:
            outcome.append(("failed", str(exc), env.now_us))
        # a later event on the same clock: proves what the waiter resumed
        # ahead of or behind at its wake-up tick
        log.append(("waiter", 0, "resumed", env.now_us))

    env.process(waiter())
    env.run()
    delivered = (net.total_msgs, net.total_bytes)
    return outcome, log, env.now_us, delivered, ssd.counters.snapshot()


@pytest.mark.parametrize("seed", range(40))
def test_random_leg_programs_match_process_all_of(seed):
    programs = _seeded_programs(seed)
    assert _run(programs, spawn_fanout) == _run(programs, _per_leg), programs


@pytest.mark.parametrize(
    "programs",
    [
        pytest.param([], id="zero-legs"),
        pytest.param([[]], id="one-empty-leg"),
        pytest.param([[("raise",)], [("timeout", 5)]], id="first-segment-raise"),
        pytest.param(
            [[("timeout", 2), ("raise",)], [("timeout", 2), ("raise",)]],
            id="two-failures-same-tick",
        ),
        pytest.param(
            [[("timeout", 1), ("raise",)], [("timeout", 9), ("raise",)]],
            id="late-failure-after-waiter-woke",
        ),
        pytest.param(
            [[("hold", 4)], [("hold", 4)], [("hold", 0)]], id="resource-queue"
        ),
        pytest.param(
            [[("fanout", [[("timeout", 3)], [("raise",)]])], [("timeout", 1)]],
            id="nested-failure",
        ),
    ],
)
def test_named_shapes_match_process_all_of(programs):
    batched = _run(programs, spawn_fanout)
    assert batched == _run(programs, _per_leg)
    assert batched[0], "the waiter must have resumed"


def test_seeded_programs_cover_every_step_kind():
    """The seeds above must actually exercise raises, holds and nesting —
    otherwise the comparison degenerates to timeouts only."""
    kinds = set()
    failed = 0
    for seed in range(40):
        outcome, log, *_ = _run(_seeded_programs(seed), spawn_fanout)
        kinds.update(kind for _tag, _step, kind, _now in log)
        failed += outcome[0][0] == "failed"
    assert kinds >= {
        "timeout", "hold", "granted", "transfer", "io", "fanout", "raise"
    }
    assert 0 < failed < 40

