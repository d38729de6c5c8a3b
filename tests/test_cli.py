"""Tests for the experiment CLI."""

import re

import pytest

from repro.harness.cli import EXPERIMENTS, main


def test_list_prints_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert set(out) == set(EXPERIMENTS)


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["bogus"])


@pytest.mark.parametrize("retired", ["slo", "background"])
def test_command_set_is_pinned(retired, capsys):
    """The nine artifacts plus six tools, nothing else: a catalog scenario
    runs through ``scenario`` or ``sweep --scenarios`` only, so the
    retired per-family runners exit 2."""
    with pytest.raises(SystemExit) as exc:
        main([retired, "--seed", "7"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    choices = re.search(r"invalid choice: .*\(choose from (.*)\)", err).group(1)
    assert set(re.findall(r"\w+", choices)) == set(EXPERIMENTS) | {
        "all", "list", "scenario", "sweep", "profile", "topology",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["fig1", "--seed", "7"],
        ["list", "--osds", "3"],
        ["scenario", "crash-mid-update", "--window", "9"],
        ["sweep", "--top", "3"],
        ["sweep", "--cache-dir", "/nonexistent"],
        ["topology", "--scale", "quick"],
        ["topology", "--live"],
        ["topology", "--seed", "7"],
        ["profile", "--methods", "pl"],
    ],
)
def test_foreign_flag_is_rejected(argv, capsys):
    """Each command takes only its own flags: one that belongs to another
    command, or to none, exits 2 instead of being silently ignored."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_fig1_via_cli(capsys):
    assert main(["fig1"]) == 0
    out = capsys.readouterr().out
    assert "Fig.1" in out
    assert "TSUE" in out


def test_topology_matrix_via_cli(capsys):
    assert main(["topology", "--files", "4", "--stripes", "10"]) == 0
    out = capsys.readouterr().out
    assert "rack0" in out  # topology tree
    assert "rotation" in out and "crush" in out
    assert "data moved by one topology event" in out


def test_scenario_prints_topology_rebalance(capsys):
    assert main(["scenario", "topo-join-crush"]) == 0
    out = capsys.readouterr().out
    assert "rebalance epoch 1" in out
    assert "time-to-balanced" in out


def test_scale_flag_sets_env(monkeypatch, capsys):
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    assert main(["fig1", "--scale", "quick"]) == 0
    import os

    assert os.environ["REPRO_SCALE"] == "quick"


def test_profile_via_cli(capsys):
    argv = ["profile", "--method", "pl", "--ops", "100", "--osds", "24", "--top", "3"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "profiled pl run: 100 ops on 24 OSDs" in out
    assert "phases: replay" in out
    assert "memory: rss" in out and "minor faults" in out
