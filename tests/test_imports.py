"""Every ``repro`` module imports on its own, whichever is imported first.

An import cycle can hide behind import order: ``harness/prefix.py`` →
``repro.fault.digest`` → ``fault/__init__`` → ``fault/runner.py`` →
``harness.prefix`` loaded only because another module happened to import
``repro.fault.digest`` before it.  One child interpreter imports each module
from a cold ``repro`` (every ``repro.*`` entry dropped from ``sys.modules``).
"""

import os
import pathlib
import subprocess
import sys

_SNIPPET = """
import importlib, pkgutil, sys
import repro

names = sorted(m.name for m in pkgutil.walk_packages(repro.__path__, "repro."))
for name in ["repro"] + [n for n in names if n != "repro.__main__"]:
    for loaded in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as exc:
        print(f"{name}: {type(exc).__name__}: {exc}")
"""


def test_every_module_imports_first():
    src_dir = pathlib.Path(__file__).parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _SNIPPET],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src_dir)),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "", proc.stdout
