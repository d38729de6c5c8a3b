"""perfbench self-tests at ``--smoke`` sizes (collected by the tier-1 command).

They pin what later PRs rely on: the emitted names match BENCHMARK.json, the
simulated statistics repeat exactly, the driver mirrors the harness instead
of forking it, tracing is invisible in the digest and fully undone, and a
stripe that does not verify fails the command.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import json
import re
import sys

import pytest

from perfbench import driver, run, tracing
from repro.cluster.ecfs import ECFS
from repro.fault import ScenarioRunner, cluster_digest, get_scenario
from repro.harness.runner import run_experiment

SEED = 11
SPEC = run.load_spec()
E2E_NAMES = [m["name"] for m in SPEC["end_to_end"]]
LAYER_NAMES = {m["name"] for m in SPEC["per_layer"]}


@pytest.fixture(autouse=True)
def _out_dir_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")


def _run(tmp_path, capsys, *argv):
    """run.py in-process; returns (exit code, result entry, contract line)."""
    out = tmp_path / "result.json"
    code = run.main(["--smoke", "--seed", str(SEED), "--json", str(out), *argv])
    doc = json.loads(out.read_text())
    (entry,) = doc["workloads"].values()
    return code, entry, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_is_consistent():
    assert [w["name"] for w in SPEC["workloads"]] == list(driver.WORKLOADS)
    names = E2E_NAMES + sorted(LAYER_NAMES)
    assert len(set(names)) == len(names) == len(SPEC["end_to_end"]) + len(SPEC["per_layer"])
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert "setup_s" in E2E_NAMES


@pytest.mark.parametrize("name", list(driver.WORKLOADS))
def test_every_workload_emits_the_declared_end_to_end_names(name, tmp_path, capsys):
    _code, entry, line = _run(tmp_path, capsys, "--workload", name)
    # valid: both repeats verified and gave the same digest, simulated
    # end-to-end metrics and per-layer counts
    assert entry["valid"] and entry["repeats"] == 2, entry["errors"]
    assert list(line["metrics"]) == E2E_NAMES
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0
    assert all(m["value"] != 0 for m in line["metrics"].values())
    assert set(entry["per_layer"]) <= LAYER_NAMES


def test_traced_run_emits_every_declared_per_layer_name(tmp_path, capsys):
    _code, entry, line = _run(tmp_path, capsys, "--workload", "tsue_mixed_ten", "--trace", "1")
    assert entry["valid"], entry["errors"]
    assert set(line["metrics"]) == LAYER_NAMES
    assert set(entry["per_layer"]) == LAYER_NAMES
    trace = entry["trace"]
    assert trace["accounted_s"] == pytest.approx(trace["run_wall_s"], rel=0.02)
    chrome = json.loads((run.OUT_DIR / "tsue_mixed_ten.trace.json").read_text())
    assert 0 < len(chrome["traceEvents"]) <= 20_000
    assert {"name", "ts", "dur", "args"} <= set(chrome["traceEvents"][0])


@pytest.mark.parametrize("name", ["tsue_mixed_ten", "wide_1000osd"])
def test_driver_mirrors_run_experiment(name):
    (member,) = driver.WORKLOADS[name](True)
    mine = driver.run_member(member, SEED)
    theirs = run_experiment(dataclasses.replace(member.cfg, seed=SEED), keep_cluster=True)
    assert mine.digest == cluster_digest(theirs.ecfs)
    rep = driver.Repeat([mine], 1.0, 1.0)
    assert driver.simulated_end_to_end(rep)["sim_update_iops"] == theirs.update_iops
    assert rep.total("events") == theirs.perf["events"]


def test_driver_mirrors_run_experiment_with_hot_files_and_duration():
    cfg = dataclasses.replace(
        driver.WORKLOADS["tsue_mixed_ten"](True)[0].cfg, hot_files=2, duration=0.002
    )
    mine = driver.run_member(driver.Member("tsue", cfg), SEED)
    theirs = run_experiment(dataclasses.replace(cfg, seed=SEED), keep_cluster=True)
    assert mine.digest == cluster_digest(theirs.ecfs)
    assert 0 < mine.sums["ops"] < cfg.n_ops  # the duration cut the replay short


def test_driver_mirrors_scenario_runner():
    member = driver.WORKLOADS["scenario_registry"](True)[0]
    mine = driver.run_member(member, SEED)
    pool = driver.SCENARIO_SEEDS
    theirs = ScenarioRunner(get_scenario(member.scenario)).run(pool[SEED % len(pool)])
    assert mine.digest == theirs.digest
    assert mine.sums["ops"] == theirs.ops


def _bindings() -> dict:
    """Every binding the tracer may replace: the dicts of the target
    classes and of every loaded ``repro`` module, and numpy's allocators."""
    owners = [getattr(importlib.import_module(m), c) for m, c, *_ in tracing.TARGET_CLASSES]
    owners += [m for n, m in sys.modules.items() if n.split(".")[0] == "repro" and m is not None]
    owners += [getattr(importlib.import_module(tracing.ROOT[0]), tracing.ROOT[1])]
    out = {(id(o), k): v for o in owners for k, v in vars(o).items()}
    import numpy

    out.update({("numpy", a): getattr(numpy, a) for a in tracing.ALLOCATORS})
    return out


def test_tracing_leaves_the_digest_alone_and_uninstalls_completely():
    workload = "tsue_write_ali_verify"
    plain = driver.run_repeat(workload, SEED, smoke=True)
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert any(v is not before[k] for k, v in _bindings().items() if k in before)
        traced = driver.run_repeat(workload, SEED, smoke=True)
    finally:
        tracer.uninstall()
    assert traced.digest == plain.digest
    assert tracer.totals[tracing.ROOT_NAME][0] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_a_corrupted_block_fails_the_command(tmp_path, capsys, monkeypatch):
    real_verify = ECFS.verify

    def verify_after_corruption(self):
        block = min(self.known_blocks)
        self.osd_hosting(block).store.corrupt(block, 0, 16)
        return real_verify(self)

    monkeypatch.setattr(ECFS, "verify", verify_after_corruption)
    code, entry, line = _run(tmp_path, capsys, "--workload", "tsue_write_ali_verify")
    assert code != 0
    assert not entry["valid"] and "IntegrityError" in entry["errors"][0]
    assert line["correct"] is False and line["failed"] == line["attempted"]


def test_a_hung_repeat_ends_the_run_as_invalid(tmp_path, capsys, monkeypatch):
    def spin(*_args):
        while True:
            pass

    monkeypatch.setattr(run, "REPEAT_WATCHDOG_S", 1)
    monkeypatch.setattr(driver, "run_repeat", spin)
    code, entry, line = _run(tmp_path, capsys, "--workload", "tsue_mixed_ten")
    assert code != 0 and not entry["valid"] and "had not ended" in entry["errors"][0]
    assert line["correct"] is False and line["failed"] == line["attempted"] == 1


def test_compare_verdicts(tmp_path, capsys):
    _code, entry, _line = _run(tmp_path, capsys, "--workload", "tsue_mixed_ten")
    for key in ("sim_ops_per_host_s", "setup_s"):  # smoke-size walls are noise
        entry["end_to_end"][key].update(median=1000.0, q1=990.0, q3=1010.0)
    doc = {"header": dict(commit="x", seed=SEED, calibration_s=0.1, loadavg=[0.0]),
           "workloads": {"tsue_mixed_ten": entry}}

    def verdict(mutate) -> tuple[int, str]:
        other = copy.deepcopy(doc)
        mutate(other["workloads"]["tsue_mixed_ten"])
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(doc))
        b.write_text(json.dumps(other))
        return run.compare(str(a), str(b), SPEC), capsys.readouterr().out

    code, text = verdict(lambda e: None)
    assert code == 0 and "within" in text and "DIFFERS" not in text
    code, text = verdict(lambda e: e["end_to_end"]["sim_ops_per_host_s"].update(median=700.0))
    assert code == 1 and "worse" in text
    code, text = verdict(lambda e: e["end_to_end"]["sim_ops_per_host_s"].update(median=1400.0))
    assert code == 0 and "better" in text
    code, text = verdict(lambda e: e["end_to_end"]["sim_update_iops"].update(median=1.0))
    assert code == 1 and "DIFFERS" in text
    code, text = verdict(lambda e: e.update(digest="other"))
    assert code == 1 and "digest DIFFERS" in text
    code, text = verdict(lambda e: e.update(run.invalid_entry("child process wrote no result")))
    assert code == 1 and "INVALID  B: child process wrote no result" in text

    other = copy.deepcopy(doc)
    other["workloads"] = {}
    (tmp_path / "a.json").write_text(json.dumps(doc))
    (tmp_path / "b.json").write_text(json.dumps(other))
    assert run.compare(str(tmp_path / "a.json"), str(tmp_path / "b.json"), SPEC) == 1
    assert "INVALID  B: workload missing" in capsys.readouterr().out
    doc["workloads"]["tsue_mixed_ten"]["end_to_end"]["sim_ops_per_host_s"].update(q1=700.0, q3=1300.0)
    code, text = verdict(lambda e: None)
    assert code == 1 and "unresolved" in text
