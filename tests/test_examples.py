"""The example scripts must run end to end (they are living documentation).

Each runs in a child interpreter, as a reader would run it."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.common.errors import IntegrityError

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(script: str, timeout: int = 420) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode:
        last = proc.stderr.strip().splitlines()[-1]
        if last.startswith("repro.common.errors.IntegrityError: "):
            raise IntegrityError(last.split(": ", 1)[1])
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_quickstart_runs():
    out = _run("quickstart.py")
    assert "verified" in out
    assert "update latencies" in out


def test_failure_recovery_runs():
    out = _run("failure_recovery.py")
    assert "rebuilt" in out
    assert out.count("verified") == 3  # tsue, pl, fo


@pytest.mark.slow
def test_compare_update_methods_runs():
    out = _run("compare_update_methods.py", timeout=900)
    assert "TSUE speedups" in out


def test_ssd_lifespan_runs():
    out = _run("ssd_lifespan.py")
    assert "wears out" in out


_DEGRADED_LOSS = "stripe f1.s0: data block 0 diverges from oracle in 4078 bytes"


@pytest.mark.xfail(strict=True, raises=IntegrityError, reason=_DEGRADED_LOSS)
def test_degraded_service_runs():
    """A single-fault reproducer: TSUE acks a 4 KiB update, the example
    kills osd0 with a bare ``osd.fail()`` and the heartbeat-driven recovery
    rebuilds the block without the logged update.  A fix turns this into an
    XPASS (strict: the suite fails until the mark goes); a failure anywhere
    else means a simulated event moved."""
    try:
        out = _run("degraded_service.py")
    except IntegrityError as exc:
        assert str(exc) == _DEGRADED_LOSS
        raise
    assert "final state verified" in out


def test_every_example_is_run():
    runs = {
        name.removeprefix("test_").removesuffix("_runs") + ".py"
        for name in globals()
        if name.startswith("test_") and name.endswith("_runs")
    }
    assert runs == {p.name for p in EXAMPLES.glob("*.py")}
