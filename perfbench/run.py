#!/usr/bin/env python3
"""perfbench command line: run the workloads, print every metric, compare
two result files.  See perfbench/README.md.

    python perfbench/run.py                       # every workload, one child process each
    python perfbench/run.py --workload NAME       # one workload, in this process
    python perfbench/run.py compare A.json B.json

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, every per-layer metric with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _p in (ROOT / "src", ROOT):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

import numpy  # noqa: E402

from perfbench import driver, probes, tracing  # noqa: E402

OUT_DIR = HERE / "out"
#: a repeat whose process got less than this share of a CPU is re-run
CPU_SHARE_FLOOR = 0.9
MAX_RERUNS = 2
WARMUPS = 1
MIN_REPEATS = 3
#: a repeat that has not ended by then is hung (a scenario that never settles
#: spins the event loop for good): its alarm ends the run as invalid
REPEAT_WATCHDOG_S = 120


class Hung(BaseException):
    """Raised by the repeat alarm.  Not an ``Exception``: the driver reports
    those as verify failures of one member and carries on."""


def _on_alarm(signum, frame):
    raise Hung(f"a repeat had not ended after {REPEAT_WATCHDOG_S} s")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ------------------------------------------------------------------ header
def _calibration_s() -> float:
    """A fixed pure-Python loop: how fast this host runs bytecode, so two
    result files from hosts of different speed are not compared blindly."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def _commit() -> str:
    # the ceiling keeps git from searching above a checkout that is no repository
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def header(args) -> dict:
    sizes = {
        name: [
            m.scenario or f"{m.cfg.method}:{m.cfg.n_ops}ops/{m.cfg.n_osds}osd"
            for m in members(args.smoke)
        ]
        for name, members in driver.WORKLOADS.items()
    }
    return {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": args.seed,
        "smoke": args.smoke,
        "calibration_s": _calibration_s(),
        "sizes": sizes,
    }


def print_header(head: dict) -> None:
    print(
        f"perfbench  commit {head['commit']}  nproc {head['nproc']}  "
        f"loadavg {head['loadavg'][0]:.2f}  python {head['python']}  "
        f"numpy {head['numpy']}  seed {head['seed']}"
        f"{'  SMOKE sizes' if head['smoke'] else ''}"
    )
    print(f"  calibration loop {head['calibration_s']:.4f} s (pure Python, fixed work)")
    for name, members in head["sizes"].items():
        shown = members if len(members) <= 6 else members[:3] + [f"... {len(members)} scenarios"]
        print(f"  {name}: {', '.join(shown)}")


# --------------------------------------------------------------- statistics
def summarize(values: list[float]) -> dict:
    """Median with quartiles (inclusive: never outside the values seen)
    and every value."""
    if len(values) > 1:
        q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def exact(value: float) -> dict:
    """A simulated statistic: it repeated exactly over every repeat."""
    return {"median": value, "exact": True}


# ----------------------------------------------------------- one workload
def _repeat(workload: str, args) -> driver.Repeat:
    """One repeat under the watchdog alarm (``main`` installs its handler)."""
    signal.alarm(REPEAT_WATCHDOG_S)
    try:
        return driver.run_repeat(workload, args.seed, args.smoke)
    finally:
        signal.alarm(0)


def _timed_repeat(workload: str, args, state: dict) -> driver.Repeat:
    """One repeat; re-run (at most MAX_RERUNS times per workload run) while
    the process got less than CPU_SHARE_FLOOR of a CPU."""
    rep = _repeat(workload, args)
    while rep.cpu_share < CPU_SHARE_FLOOR and state["reruns"] < MAX_RERUNS:
        state["reruns"] += 1
        print(f"  repeat contended (cpu/wall {rep.cpu_share:.2f}): re-running")
        rep = _repeat(workload, args)
    if rep.cpu_share < CPU_SHARE_FLOOR:
        state["contended"] += 1
    return rep


def invalid_entry(error: str) -> dict:
    """The entry of a workload that produced no result."""
    return {"valid": False, "errors": [error], "attempted": 1, "failed": 1,
            "end_to_end": {}, "per_layer": {}}


def run_workload(name: str, args) -> dict:
    """Warm up, run the timed repeats, optionally one traced repeat and the
    probes; check every repeat against the first; return the result entry.

    Timed repeats run until ``--seconds`` have passed, at least MIN_REPEATS;
    ``--repeats N`` asks for exactly N instead, and ``--smoke`` for exactly 2
    with no warm-up."""
    trace = bool(args.trace)
    warmups = 0 if args.smoke else WARMUPS
    fixed = args.repeats or (2 if args.smoke else 0)
    min_repeats, seconds = (fixed, 0.0) if fixed else (MIN_REPEATS, args.seconds)
    state = {"reruns": 0, "contended": 0}
    errors: list[str] = []
    reference: dict = {}

    def check(rep: driver.Repeat, what: str) -> bool:
        """Verify failures, then digest and simulated statistics against
        the first repeat's."""
        errors.extend(f"{what}: {e}" for e in rep.errors)
        sim = {**driver.simulated_end_to_end(rep), **driver.simulated_counts(rep)}
        if not reference:
            reference.update(digest=rep.digest, sim=sim)
            return not rep.errors
        if rep.digest != reference["digest"]:
            errors.append(f"{what}: digest differs from the first repeat's")
            return False
        diff = [k for k, v in sim.items() if v != reference["sim"][k]]
        if diff:
            errors.append(f"{what}: simulated metrics differ from the first repeat's: {diff}")
            return False
        return not rep.errors

    for i in range(warmups):
        check(_repeat(name, args), f"warm-up {i}")
    timed: list[driver.Repeat] = []
    attempted = failed = 0
    t0 = time.perf_counter()
    while len(timed) < min_repeats or time.perf_counter() - t0 < seconds:
        rep = _timed_repeat(name, args, state)
        ok = check(rep, f"repeat {len(timed)}")
        ops = int(rep.total("ops"))
        attempted += ops
        # a refusal the simulation models (an op against a crashed OSD) is a
        # simulated outcome, reported as sim_ops_ok_share; an op is *failed*
        # when its run did not verify or did not reproduce
        failed += ops if not ok else 0
        timed.append(rep)

    last = timed[-1]
    end_to_end = {k: exact(v) for k, v in driver.simulated_end_to_end(last).items()}
    host = [driver.host_end_to_end(r) for r in timed]
    end_to_end.update({k: summarize([h[k] for h in host]) for k in host[0]})
    end_to_end["peak_rss_mb"] = summarize(
        [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    )
    per_layer = {k: exact(v) for k, v in driver.simulated_counts(last).items()}
    phases = [driver.host_phases(r) for r in timed]
    per_layer.update({k: summarize([p[k] for p in phases]) for k in phases[0]})

    entry = {
        "warmups": warmups,
        "repeats": len(timed),
        "repeat_wall_s": summarize([r.wall_s for r in timed]),
        "cpu_share": summarize([r.cpu_share for r in timed]),
        "reruns": state["reruns"],
        "contended": state["contended"],
        "digest": reference["digest"],
        "attempted": attempted,
        "failed": failed,
        "update_samples": int(last.total("updates")),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = _repeat(name, args)
        finally:
            tracer.uninstall()
        check(traced, "traced repeat")
        for key, value in tracer.metrics(traced.total("events")).items():
            per_layer[key] = summarize([value])
        per_layer["perfbench.trace_overhead_share"] = summarize(
            [traced.wall_s / entry["repeat_wall_s"]["median"] - 1.0]
        )
        run_wall, accounted = tracer.accounting()
        entry["trace"] = {
            "run_wall_s": run_wall,
            "accounted_s": accounted,
            "spans": tracer.n_spans,
            "spans_kept": len(tracer.spans),
            "layers": {
                layer: {"calls": t[0], "self_s": t[2] / 1e9, "self_in_run_s": t[3] / 1e9}
                for layer, t in sorted(tracer.layer_totals().items())
            },
        }
        if run_wall and abs(accounted - run_wall) > 0.02 * run_wall:
            errors.append(
                f"traced accounting: layer self times + residual = {accounted:.4f} s, "
                f"Environment.run wall = {run_wall:.4f} s"
            )
        tracer.write_chrome_trace(OUT_DIR / f"{name}.trace.json")
    if trace or args.probes:
        probe_values = probes.run_probes(1) if args.smoke else probes.run_probes()
        for key, value in probe_values.items():
            per_layer[key] = summarize([value])
    entry["errors"] = errors
    entry["valid"] = not errors
    return entry


# ------------------------------------------------------------------ report
def _fmt(value: float) -> str:
    if value == 0 or 0.01 <= abs(value) < 1e6:
        return f"{value:,.4f}".rstrip("0").rstrip(".")
    return f"{value:.4e}"


def print_entry(name: str, entry: dict, spec: dict) -> None:
    if "repeats" not in entry:  # invalid_entry: nothing was measured
        print(f"\n== {name}: no result")
        for err in entry["errors"]:
            print(f"  INVALID: {err}")
        return
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wall = entry["repeat_wall_s"]
    print(
        f"\n== {name}: {entry['repeats']} timed repeats after {entry['warmups']} warm-up, "
        f"repeat wall {wall['median']:.3f} s [{wall['q1']:.3f} .. {wall['q3']:.3f}], "
        f"cpu/wall {entry['cpu_share']['median']:.3f}, {entry['reruns']} re-runs, "
        f"{entry['contended']} contended"
    )
    print(f"  digest {entry['digest']}")
    print(f"  end to end (update latency samples per repeat: {entry['update_samples']})")

    def line(key: str, m: dict) -> None:
        text = f"    {key:40s} {_fmt(m['median']):>16s} {units.get(key, ''):10s}"
        if m.get("exact"):
            text += " exact"
        elif len(m["values"]) > 1:
            text += f" [{_fmt(m['q1'])} .. {_fmt(m['q3'])}] n={len(m['values'])}"
        print(text)

    for metric in spec["end_to_end"]:
        line(metric["name"], entry["end_to_end"][metric["name"]])
    print("  per layer (a layer that did not run on this workload reads 0)")
    for key in sorted(entry["per_layer"]):
        line(key, entry["per_layer"][key])
    trace = entry.get("trace")
    if trace:
        run_wall = trace["run_wall_s"]
        print(
            f"  traced repeat: {trace['spans']} spans ({trace['spans_kept']} kept), "
            f"Environment.run wall {run_wall:.4f} s, layer self times + residual "
            f"{trace['accounted_s']:.4f} s, trace overhead "
            f"{entry['per_layer']['perfbench.trace_overhead_share']['median']:+.1%}"
        )
        print("    share of traced Environment.run wall (self time under the root);")
        print("    'sim' is the residual: the event loop PLUS the generator bodies of")
        print("    update, net, storage timing and frontend, not bracketable from outside")
        for layer, t in trace["layers"].items():
            share = t["self_in_run_s"] / run_wall if run_wall else 0.0
            print(
                f"    {layer:22s} {share:7.1%}  self {t['self_s']:.4f} s "
                f"({t['self_in_run_s']:.4f} s under the root), {t['calls']} calls"
            )
    for err in entry["errors"]:
        print(f"  INVALID: {err}")


def contract_line(entry: dict, spec: dict, trace: bool) -> str:
    """The one-line result the benchmark contract asks for."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    source = entry["per_layer"] if trace else entry["end_to_end"]
    metrics = {
        m["name"]: {"value": source[m["name"]]["median"], "unit": m["unit"]}
        for m in declared
        if m["name"] in source  # an invalid_entry carries none
    }
    return json.dumps(
        {
            "correct": entry["valid"],
            "attempted": entry["attempted"],
            "failed": entry["failed"],
            "metrics": metrics,
        }
    )


# ----------------------------------------------------------------- compare
def _verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """(verdict, B ÷ A).  ``unresolved`` when A's own inter-quartile spread
    exceeds the bound: the metric cannot resolve a change that small."""
    ratio = b["median"] / a["median"] if a["median"] else float("nan")
    worse_by = (1.0 - ratio) if better == "higher" else (ratio - 1.0)
    spread = (a["q3"] - a["q1"]) / a["median"] if a["median"] else 0.0
    if spread > bound:
        return "unresolved", ratio
    if worse_by > bound:
        return "worse", ratio
    return ("better" if -worse_by > bound else "within"), ratio


def compare(path_a: str, path_b: str, spec: dict) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        doc_a, doc_b = json.load(fa), json.load(fb)
    for label, doc in (("A", doc_a), ("B", doc_b)):
        head = doc["header"]
        print(
            f"{label}: commit {head['commit']} seed {head['seed']} "
            f"calibration {head['calibration_s']:.4f} s loadavg {head['loadavg'][0]:.2f}"
        )
    bad = 0
    print(f"\n{'workload':24s} {'metric':22s} {'A median [q1..q3]':>34s} "
          f"{'B median [q1..q3]':>34s} {'B÷A':>8s} {'bound':>6s} verdict")
    for name in dict.fromkeys([*doc_a["workloads"], *doc_b["workloads"]]):
        wa, wb = doc_a["workloads"].get(name), doc_b["workloads"].get(name)
        broken = [
            f"{label}: {err}"
            for label, w in (("A", wa), ("B", wb))
            for err in (["workload missing"] if w is None else [] if w["valid"] else w["errors"])
        ]
        if broken:  # nothing to compare: a bad row by itself
            bad += 1
            print(f"{name:24s} INVALID  {'; '.join(broken)}")
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            a, b = wa["end_to_end"][key], wb["end_to_end"][key]
            if a.get("exact"):
                same = a["median"] == b["median"]
                bad += not same
                print(f"{name:24s} {key:22s} {_fmt(a['median']):>34s} {_fmt(b['median']):>34s} "
                      f"{'':8s} {'exact':>6s} {'equal' if same else 'DIFFERS'}")
                continue
            verdict, ratio = _verdict(a, b, metric["better"], metric["bound"])
            bad += verdict in ("worse", "unresolved")

            def cell(m: dict) -> str:
                return f"{_fmt(m['median'])} [{_fmt(m['q1'])}..{_fmt(m['q3'])}]"

            print(f"{name:24s} {key:22s} {cell(a):>34s} {cell(b):>34s} "
                  f"{ratio:8.4f} {metric['bound']:6.2f} {verdict}")
        differing = [
            k for k, a in wa["per_layer"].items()
            if a.get("exact") and k in wb["per_layer"] and wb["per_layer"][k]["median"] != a["median"]
        ]
        n_exact = sum(1 for a in wa["per_layer"].values() if a.get("exact"))
        same_digest = wa["digest"] == wb["digest"]
        bad += len(differing) + (not same_digest)
        print(f"{name:24s} {'per-layer counts':22s} {n_exact} exact counts: "
              f"{'all equal' if not differing else 'DIFFER: ' + ', '.join(differing)}; "
              f"digest {'equal' if same_digest else 'DIFFERS'}")
    print(f"\n{'OK: no row worse, unresolved, differing or invalid' if not bad else f'{bad} rows worse, unresolved, differing or invalid'}")
    return 1 if bad else 0


# -------------------------------------------------------------------- main
def _parser(spec: dict) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(driver.WORKLOADS))
    p.add_argument("--seed", type=int, default=2025)
    # the benchmark contract's driver passes --seconds on every run
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                   help="keep running timed repeats until this much wall has "
                        "passed (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--repeats", type=int, default=0,
                   help="exactly this many timed repeats instead")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="add one traced repeat and the probes; the result line "
                        "then carries the per-layer metrics")
    p.add_argument("--probes", action="store_true", help="run the isolated probes")
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests")
    p.add_argument("--json", metavar="OUT", help="write the full result document")
    return p


def run_all(args, spec: dict, head: dict) -> dict:
    """Every workload, each in its own child process, so peak RSS and memo
    state are per workload."""
    OUT_DIR.mkdir(exist_ok=True)
    doc = {"header": head, "workloads": {}}
    for name in driver.WORKLOADS:
        part = OUT_DIR / f".{name}.{os.getpid()}.json"
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--repeats", str(args.repeats), "--trace", str(args.trace),
               "--json", str(part)]
        cmd += ["--probes"] * args.probes + ["--smoke"] * args.smoke
        try:
            subprocess.run(cmd, check=False)
            with open(part) as fh:
                doc["workloads"][name] = json.load(fh)["workloads"][name]
        except OSError:
            doc["workloads"][name] = invalid_entry("child process wrote no result")
        finally:
            part.unlink(missing_ok=True)
    return doc


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = load_spec()
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2], spec)
    args = _parser(spec).parse_args(argv)
    head = header(args)
    if args.workload:
        print_header(head)
        signal.signal(signal.SIGALRM, _on_alarm)
        try:
            entry = run_workload(args.workload, args)
        except Hung as exc:
            entry = invalid_entry(str(exc))
        doc = {"header": head, "workloads": {args.workload: entry}}
        print_entry(args.workload, entry, spec)
    else:
        doc = run_all(args, spec, head)
    if args.json:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=1)
    invalid = [n for n, e in doc["workloads"].items() if not e["valid"]]
    contended = [n for n, e in doc["workloads"].items() if e.get("contended")]
    if args.workload:
        print(contract_line(doc["workloads"][args.workload], spec, bool(args.trace)))
    else:
        print(f"\nperfbench: {len(doc['workloads'])} workloads, "
              f"{len(invalid)} invalid {invalid}, {len(contended)} contended {contended}")
    return 1 if invalid or contended else 0


if __name__ == "__main__":
    sys.exit(main())
