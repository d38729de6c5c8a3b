"""Nightly engine-throughput regression gate over the BENCH trajectory.

Compares the newest ``engine`` entry in ``BENCH_engine.json`` against the
median of the previous (up to) five entries and exits nonzero on a
regression beyond the tolerance.  Two metrics are gated independently:

* **events/sec** — raw event-loop throughput.  Rewarding on its own terms:
  an optimization that *removes* scaffolding events (macro-op batching)
  can lower events/sec while making every run faster.
* **sim-ops/sec** — simulated client ops per host second, the honest
  end-to-end metric.  Gated only across entries that recorded it (older
  trajectory entries predate the field), so the gate tightens as history
  accumulates instead of comparing against absent data.

Comparisons are host-normalized: each entry's metric is divided by its
recorded ``host_factor``, mapping the measurement onto the reference
container's speed, so a slow shared CI runner doesn't read as a code
regression (and a fast one doesn't mask it).  A 25% tolerance keeps the
gate quiet across ordinary CI-runner noise while still catching the
step-function slowdowns that matter.

Run from the repo root (CI runs it right after the perf tier appends the
night's entry)::

    python benchmarks/check_engine_regression.py
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

_BENCH_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_engine.json"

#: newest entry must reach this fraction of the trailing median
TOLERANCE = 0.75

#: how many prior entries the trailing median is taken over
WINDOW = 5

#: gated metrics: (entry key, printable label)
METRICS = [
    ("events_per_sec", "ev/s"),
    ("sim_ops_per_sec", "sim-ops/s"),
]


def normalized(entry: dict, key: str) -> float:
    """Metric mapped onto the reference container's speed."""
    host_factor = float(entry.get("host_factor", 1.0)) or 1.0
    return float(entry[key]) / host_factor


def check_metric(engine: list[dict], key: str, label: str) -> bool:
    """Gate one metric over the entries that recorded it; True = pass."""
    recorded = [e for e in engine if key in e]
    if len(recorded) < 2:
        print(f"{label}: {len(recorded)} entr"
              f"{'y' if len(recorded) == 1 else 'ies'} with the metric: "
              "no history to compare against")
        return True
    latest, prior = recorded[-1], recorded[-1 - WINDOW : -1]
    latest_val = normalized(latest, key)
    median_val = statistics.median(normalized(e, key) for e in prior)
    ratio = latest_val / median_val if median_val > 0 else float("inf")
    print(
        f"{label}: latest {latest_val:,.0f} (normalized)  |  "
        f"median of last {len(prior)}: {median_val:,.0f}  |  "
        f"ratio {ratio:.3f} (gate {TOLERANCE})"
    )
    if ratio < TOLERANCE:
        print(
            f"REGRESSION: engine {label} fell to {ratio:.0%} of the "
            f"trailing median (allowed floor {TOLERANCE:.0%})",
            file=sys.stderr,
        )
        return False
    return True


def main() -> int:
    if not _BENCH_PATH.exists():
        print(f"no {_BENCH_PATH.name}: nothing to gate")
        return 0
    doc = json.loads(_BENCH_PATH.read_text())
    engine = [e for e in doc.get("entries", []) if e.get("bench") == "engine"]
    if len(engine) < 2:
        print(f"{len(engine)} engine entr{'y' if len(engine) == 1 else 'ies'}: "
              "no history to compare against")
        return 0
    ok = True
    for key, label in METRICS:
        ok = check_metric(engine, key, label) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
