"""Crash-durability matrix: every update method survives a mid-update crash.

For each method in :data:`repro.update.METHODS`, a workload replays with
failure-tolerant clients while an OSD is crashed abruptly mid-stream (no
quiesce — in-flight foreground and background work is cut off), recovery
rebuilds the node, and the stripe-verify oracle must pass byte-for-byte:
no acked update may be lost, none may double-apply.
"""

import inspect
import sys

import pytest

from repro.cluster import ClusterConfig, ECFS
from repro.common.errors import IntegrityError
from repro.fault.events import BounceOSD, CrashOSD, FaultSchedule, after_ops
from repro.fault.injector import FaultInjector
from repro.harness.runner import resolve_trace
from repro.traces.replayer import TraceReplayer
from repro.traces.synthetic import generate_trace
from repro.update import METHODS


def _spy_handler_resyncs(method, handled: list) -> None:
    """Append to ``handled`` the name of every function that marks a parity
    row for resync from inside an ``except IntegrityError`` block, and of the
    generators delegating to it (the handler the log-apply loops share is
    ``UpdateMethod.deliver_parity``; the loop that reached it is its caller)."""
    mark = method._mark_parity_resync

    def spy(pbid):
        if isinstance(sys.exc_info()[1], IntegrityError):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code.co_flags & inspect.CO_GENERATOR:
                handled.append(frame.f_code.co_name)
                frame = frame.f_back
        mark(pbid)

    method._mark_parity_resync = spy


def _run_crash(
    method: str, victim: int = 0, seed: int = 21, n_ops: int = 150,
    schedule: FaultSchedule | None = None, handled: list | None = None,
):
    ecfs = ECFS(
        ClusterConfig(
            n_osds=10, k=4, m=2, block_size=1 << 16, log_unit_size=1 << 17,
            seed=seed,
        ),
        method=method,
    )
    files = ecfs.populate(n_files=2, stripes_per_file=2, fill="random")
    if handled is not None:
        _spy_handler_resyncs(ecfs.method, handled)
    if schedule is None:
        schedule = FaultSchedule().when(
            after_ops(n_ops // 3), CrashOSD(osd=victim, recover=True)
        )
    injector = FaultInjector(ecfs, schedule)
    injector.start()
    trace = generate_trace(
        resolve_trace("tencloud"), n_ops, files,
        ecfs.mds.lookup(files[0]).size, seed=seed,
    )
    replay = TraceReplayer(ecfs, trace).run(4, tolerate_failures=True)
    ecfs.drain()
    injector.workload_finished()
    ecfs.env.run(injector.done())
    ecfs.drain()
    return ecfs, injector, replay


@pytest.mark.parametrize("method", sorted(METHODS))
def test_method_survives_mid_update_crash(method):
    ecfs, injector, replay = _run_crash(method)
    assert len(injector.recovery_reports) == 1
    assert injector.recovery_reports[0].blocks_rebuilt > 0
    # every acked update must survive, byte-for-byte
    assert ecfs.verify() == 4


@pytest.mark.parametrize("method", ["fo", "tsue"])
def test_crash_of_second_victim(method):
    """Same matrix against a different victim (different data/parity mix)."""
    ecfs, injector, _replay = _run_crash(method, victim=5, seed=33)
    assert ecfs.verify() == 4


def test_ops_fail_during_outage_but_service_continues():
    ecfs, _injector, replay = _run_crash("tsue", seed=77, n_ops=240)
    # the workload finished despite the mid-stream crash; clients kept going
    assert replay.ops_issued + replay.failures == 240
    assert ecfs.verify() == 4


@pytest.mark.parametrize(
    "method, handler, crashes",
    [
        # parity host osd5 dies while FL's drain-time recycle (replay ends at
        # 6.1 ms) is between the liveness check and the parity write
        ("fl", "_apply_block_log", [(0.0064, 5)]),
        # osd0 dies holding unmerged log entries; osd4, a parity host of its
        # block, dies while the rebuild replays them onto the parity rows
        ("fl", "post_rebuild", [(0.002, 0), (0.0036, 4)]),
        # parity host osd6 dies recycling its own pair logs (drain from 9.7 ms)
        ("parix", "_recycle_osd", [(0.0107, 6)]),
    ],
)
def test_parity_host_dies_mid_apply(method, handler, crashes):
    """The ``except IntegrityError`` of each log-apply loop marks the row for
    resync (these three raised ``NameError`` before the import was added)."""
    schedule = FaultSchedule()
    for t, osd in crashes:
        schedule.at(t, CrashOSD(osd=osd, recover=True))
    handled: list[str] = []
    ecfs, injector, _replay = _run_crash(method, schedule=schedule, handled=handled)
    # sim time is deterministic; if a timing change moves the window, scan
    # crash times until the handler is reached again
    assert handler in handled, f"crash at {crashes} missed {handler}: {handled}"
    assert len(injector.recovery_reports) == len(crashes)
    assert ecfs.verify() == 4


def test_fl_prepare_host_dies_mid_prepare():
    """osd7's recovery runs FL's ``recovery_prepare`` on every survivor;
    osd4 bounces 19 us later, in the middle of its own prepare.  Its
    ``UnavailableError`` used to escape ``env.run`` through
    ``fail_and_recover``; the unpopped entries now go to the stash / restart
    path and the rebuild of osd7 finishes."""
    schedule = (
        FaultSchedule()
        .at(3.609e-3, CrashOSD(osd=7, recover=True))
        .at(3.628e-3, BounceOSD(4, 3.184e-3))
    )
    ecfs, injector, _replay = _run_crash("fl", schedule=schedule)
    assert [r.failed_osd for r in injector.recovery_reports] == [7]
    assert ecfs.verify() == 4


def _two_fault(method: str, schedule: FaultSchedule, outcome: str, id: str):
    return pytest.param(
        method, schedule, outcome, id=id,
        marks=pytest.mark.xfail(strict=True, raises=IntegrityError, reason=outcome),
    )


@pytest.mark.parametrize(
    "method, schedule, outcome",
    [
        _two_fault(
            "tsue",
            FaultSchedule()
            .at(2.309e-3, CrashOSD(4))
            .at(4.967e-3, BounceOSD(8, 2.67e-3)),
            "stripe f2.s1: parity block 0 stale (4083 bytes differ)",
            "tsue-crash4-bounce8",
        ),
        _two_fault(
            "fo",
            FaultSchedule()
            .at(2.825e-3, CrashOSD(0))
            .at(3.242e-3, CrashOSD(7)),
            "stripe f2.s0: parity block 0 stale (24476 bytes differ)",
            "fo-crash0-crash7",
        ),
        _two_fault(
            "fo",
            FaultSchedule()
            .at(4.672e-3, CrashOSD(7))
            .at(4.866e-3, CrashOSD(0)),
            "stripe f2.s0: parity block 0 stale (4074 bytes differ)",
            "fo-crash7-crash0",
        ),
        _two_fault(
            "fl",
            FaultSchedule()
            .at(1.684e-3, BounceOSD(9, 1.919e-3))
            .at(2.940e-3, CrashOSD(7)),
            "stripe f2.s0: parity block 1 stale (65285 bytes differ)",
            "fl-bounce9-crash7",
        ),
        _two_fault(
            "plr",
            FaultSchedule()
            .at(3.179e-3, BounceOSD(4, 0.946e-3))
            .at(5.606e-3, CrashOSD(5)),
            "stripe f1.s0: parity block 0 stale (4072 bytes differ)",
            "plr-bounce4-crash5",
        ),
        _two_fault(
            "plr",
            FaultSchedule()
            .at(5.402e-3, CrashOSD(6))
            .at(6.504e-3, CrashOSD(0)),
            "stripe f2.s0: data block 1 diverges from oracle in 4082 bytes",
            "plr-crash6-crash0",
        ),
        _two_fault(
            "cord",
            FaultSchedule()
            .at(1.853e-3, CrashOSD(1))
            .at(3.503e-3, CrashOSD(5)),
            "stripe f1.s1: data block 0 diverges from oracle in 4076 bytes",
            "cord-crash1-crash5",
        ),
        _two_fault(
            "cord",
            FaultSchedule()
            .at(3.349e-3, BounceOSD(9, 0.958e-3))
            .at(4.704e-3, CrashOSD(8)),
            "stripe f2.s0: data block 3 diverges from oracle in 65260 bytes",
            "cord-bounce9-crash8",
        ),
    ],
)
def test_two_concurrent_faults(method, schedule, outcome):
    """Two faults a few ms apart on RS(4,2) — at the code's tolerance m —
    found by a random two-fault sweep.  Each still loses an acked update; a
    fix turns its row into an XPASS (strict: the suite fails until the mark
    goes).  The failure must stay the recorded one: these rows are timing
    dependent, so a row that fails on another stripe or byte count means
    something moved a simulated event."""
    try:
        ecfs, _injector, _replay = _run_crash(method, schedule=schedule)
        ecfs.verify()
    except IntegrityError as exc:
        assert str(exc) == outcome
        raise
