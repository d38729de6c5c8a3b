"""Golden cluster digests: one committed row per method / option set / scenario.

``tests/golden/digests.json`` pins the canonical digest (sim clock, op
counts, latency sums, device counters, network totals, block bytes) and
the heap-event count of

* the seven update methods on one small shared shape,
* TSUE under the fig. 7 ``Baseline`` / ``O1`` / ``O3`` option sets —
  Baseline keeps unmerged records, so one log unit holds overlapping
  same-block extents that must apply in append order,
* every scenario of the catalog at seed 7, among them
  ``bg-recycle-vs-recovery``: a crash rebuild forcing settlement while the
  arbitered recycle loop runs, i.e. two recycles of one pool in flight at
  once.  A new catalog row cannot land without its golden.

The rows were generated with the table-driven write schedules and the
bulk drain plane still in the tree and agreed with both switched off;
they now pin the single remaining path.  Any change to simulated timing,
event structure or block bytes shows up here as a one-row diff.

Regenerate (all rows, or the named ones) with::

    PYTHONPATH=src python tests/test_golden_digests.py > tests/golden/digests.json
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.fault.digest import cluster_digest
from repro.fault.runner import ScenarioRunner
from repro.fault.scenarios import SCENARIOS as CATALOG, get_scenario
from repro.harness.runner import ExperimentConfig, run_experiment
from repro.update.tsue import TSUEOptions

_GOLDEN = pathlib.Path(__file__).parent / "golden" / "digests.json"

METHODS = ["fo", "fl", "pl", "plr", "parix", "tsue", "cord"]
BREAKDOWN_STEPS = ["Baseline", "O1", "O3"]
SCENARIOS = sorted(CATALOG)
#: rows recomputed in fresh interpreters under other hash seeds
_HASHSEED_ROWS = ["method/tsue", "scenario/slo-qos-crash"]


def _experiment_row(method: str, method_options: dict | None = None) -> dict:
    cfg = ExperimentConfig(
        method=method,
        trace="tencloud",
        k=4,
        m=2,
        n_osds=10,
        n_clients=4,
        n_ops=150,
        block_size=1 << 16,
        log_unit_size=1 << 17,
        n_files=2,
        stripes_per_file=2,
        seed=4242,
        verify=True,
        method_options=method_options or {},
    )
    result = run_experiment(cfg, keep_cluster=True)
    return {
        "digest": cluster_digest(result.ecfs),
        "events": int(result.perf["events"]),
    }


def _scenario_row(name: str) -> dict:
    result = ScenarioRunner(get_scenario(name)).run(seed=7)
    assert result.stripes_verified > 0 and result.ops > 0, name
    return {"digest": result.digest, "events": int(result.events)}


def compute(row: str) -> dict:
    kind, _, name = row.partition("/")
    if kind == "method":
        return _experiment_row(name)
    if kind == "tsue-breakdown":
        return _experiment_row(
            "tsue", {"options": TSUEOptions.breakdown()[name]}
        )
    if kind == "scenario":
        return _scenario_row(name)
    raise KeyError(row)


ROWS = (
    [f"method/{m}" for m in METHODS]
    + [f"tsue-breakdown/{s}" for s in BREAKDOWN_STEPS]
    + [f"scenario/{n}" for n in SCENARIOS]
)


def _golden() -> dict:
    return json.loads(_GOLDEN.read_text())


def _assert_matches(got: dict, row: str) -> None:
    assert got == _golden()[row], (
        f"{row} diverged from the committed golden; if the change is "
        f"intended, re-bless tests/golden/digests.json (see this module's "
        f"docstring)"
    )


def test_golden_file_lists_exactly_the_rows():
    assert sorted(_golden()) == sorted(ROWS)


@pytest.mark.parametrize("row", ROWS)
def test_golden_digest(row):
    _assert_matches(compute(row), row)


@pytest.mark.parametrize("hashseed", ["1", "424242"])
def test_golden_digest_stable_across_hashseeds(hashseed):
    """Digests must not lean on dict/set iteration order: a fresh
    interpreter under another PYTHONHASHSEED reproduces the same file."""
    src_dir = pathlib.Path(__file__).parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src_dir), PYTHONHASHSEED=hashseed)
    proc = subprocess.run(
        [sys.executable, __file__, *_HASHSEED_ROWS],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    got = json.loads(proc.stdout)
    assert sorted(got) == sorted(_HASHSEED_ROWS)
    for row in _HASHSEED_ROWS:
        _assert_matches(got[row], row)


if __name__ == "__main__":
    json.dump(
        {row: compute(row) for row in sys.argv[1:] or ROWS},
        sys.stdout,
        indent=1,
        sort_keys=True,
    )
    sys.stdout.write("\n")
