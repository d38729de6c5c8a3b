"""The example scripts must run end to end (they are living documentation).

Each runs in a child interpreter, as a reader would run it."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(script: str, timeout: int = 420) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
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


def test_degraded_service_runs():
    """TSUE acks a 4 KiB update, the example stops osd0 (``ECFS.stop_osd``,
    the method not told) and the heartbeat-driven recovery rebuilds it:
    ``fail_and_recover`` crashes the stopped node first, so the logged
    update is stashed and replayed onto the rebuilt block."""
    out = _run("degraded_service.py")
    assert "final state verified: 8 stripes consistent, 1 recovery completed" in out


def test_every_example_is_run():
    runs = {
        name.removeprefix("test_").removesuffix("_runs") + ".py"
        for name in globals()
        if name.startswith("test_") and name.endswith("_runs")
    }
    assert runs == {p.name for p in EXAMPLES.glob("*.py")}
