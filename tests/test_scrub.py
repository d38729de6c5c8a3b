"""Tests for the background stripe scrubber."""

import dataclasses
import sys

import numpy as np
import pytest

from repro.cluster import BlockId, ClusterConfig, ECFS
from repro.cluster.scrub import Scrubber
from repro.ec.rs import RSCode
from repro.fault import get_scenario
from repro.fault.runner import ScenarioRunner
from repro.traces import TraceReplayer, generate_trace, tencloud_spec


def _cluster(method="tsue"):
    return ECFS(
        ClusterConfig(
            n_osds=10, k=4, m=2, block_size=1 << 14, log_unit_size=1 << 15, seed=71
        ),
        method=method,
    )


def test_clean_cluster_scrubs_clean():
    ecfs = _cluster()
    ecfs.populate(n_files=1, stripes_per_file=3, fill="random")
    report = ecfs.env.run(ecfs.env.process(Scrubber(ecfs).scrub()))
    assert report.clean
    assert report.stripes_checked == 3
    assert report.stripes_skipped == 0


def test_scrubber_finds_injected_corruption():
    ecfs = _cluster()
    files = ecfs.populate(n_files=1, stripes_per_file=3, fill="random")
    pbid = BlockId(files[0], 1, 4)  # parity 0 of stripe 1
    osd = ecfs.osd_hosting(pbid)
    osd.store.xor_in(pbid, 100, np.full(8, 0xFF, dtype=np.uint8))
    report = ecfs.env.run(ecfs.env.process(Scrubber(ecfs).scrub()))
    assert not report.clean
    assert (files[0], 1, 0) in report.mismatches


def test_scrubber_skips_stripes_with_log_debt():
    ecfs = _cluster("pl")
    files = ecfs.populate(n_files=1, stripes_per_file=2, fill="random")
    (client,) = ecfs.add_clients(1)
    ecfs.env.run(ecfs.env.process(client.update(files[0], 0, 4096)))
    # PL parked the parity delta in its log: the stripe legitimately lags
    report = ecfs.env.run(ecfs.env.process(Scrubber(ecfs).scrub()))
    assert report.stripes_skipped >= 1
    assert report.clean  # nothing *wrongly* inconsistent was reported


def test_scrubber_after_tsue_drain_checks_everything():
    ecfs = _cluster()
    files = ecfs.populate(n_files=2, stripes_per_file=2, fill="random")
    trace = generate_trace(
        tencloud_spec(), 100, files, ecfs.mds.lookup(files[0]).size, seed=4
    )
    TraceReplayer(ecfs, trace).run(n_clients=4)
    ecfs.drain()
    report = ecfs.env.run(ecfs.env.process(Scrubber(ecfs).scrub()))
    assert report.clean
    assert report.stripes_checked == 4


def test_scrubber_bounded_pass():
    ecfs = _cluster()
    ecfs.populate(n_files=1, stripes_per_file=5, fill="random")
    report = ecfs.env.run(
        ecfs.env.process(Scrubber(ecfs, stripes_per_pass=2).scrub())
    )
    assert report.stripes_checked == 2


def test_scrubber_charges_device_time():
    ecfs = _cluster()
    ecfs.populate(n_files=1, stripes_per_file=2, fill="random")
    t0 = ecfs.env.now
    ecfs.env.run(ecfs.env.process(Scrubber(ecfs).scrub()))
    assert ecfs.env.now > t0
    reads = sum(o.device.counters.reads for o in ecfs.osds)
    assert reads == 2 * (4 + 2)  # every block of every stripe read once


# ------------------------------------------------------ parity-clean record
def test_scrub_after_a_clean_pass_still_sees_silent_parity_rot():
    """A clean pass records the stripe's generations; rot that raises no
    sector error still takes a new one, so the next pass re-encodes."""
    ecfs = _cluster()
    files = ecfs.populate(n_files=1, stripes_per_file=3, fill="random")
    assert ecfs.env.run(ecfs.env.process(Scrubber(ecfs).scrub())).clean
    pbid = BlockId(files[0], 1, 5)  # parity 1 of stripe 1
    store = ecfs.osd_hosting(pbid).store
    store.xor_in(pbid, 100, np.full(8, 0xFF, dtype=np.uint8))
    assert pbid not in store.corrupted
    report = ecfs.env.run(ecfs.env.process(Scrubber(ecfs).scrub()))
    assert report.mismatches == [(files[0], 1, 1)]
    assert report.latent_errors == []


def _scenario_outcome(name: str) -> tuple:
    result = ScenarioRunner(get_scenario(name)).run(7)
    reports = [dataclasses.asdict(r) for r in result.scrub_reports]
    return result.digest, reports, result.stripes_verified


@pytest.mark.parametrize(
    "name", ["bg-storm-crash-recovery", "bg-scrub-under-load", "scrub-repair"]
)
def test_the_clean_record_changes_no_result(name, monkeypatch):
    """Skipping the re-encode of an unchanged stripe is invisible: with a
    record that never hits, the digest, every ScrubReport field and the
    verified-stripe count are those of the run with the skip."""
    with_skip = _scenario_outcome(name)
    real = ECFS.stale_parity_rows

    def never_hit(self, *args):
        self._parity_clean.clear()
        return real(self, *args)

    monkeypatch.setattr(ECFS, "stale_parity_rows", never_hit)
    assert _scenario_outcome(name) == with_skip
    assert with_skip[1] and with_skip[2]  # the scenario scrubs and verifies


def test_scrub_and_verify_encode_only_changed_stripes(monkeypatch):
    """``bg-storm-crash-recovery`` at seed 7 scrubs 24 stripes three times
    and verifies them once: 96 RS encodes without the clean record.  A
    count back at 96 means the skip was silently disabled.

    The count stayed 27 when populate's parity became lazy and codeword-
    backed stripes began to be checked from their deltas: all 27 encode
    bytes, none deltas.  Scrub holds only the bytes it read, so its checks
    encode content, and its first pass makes each stripe's parity rows
    (24 ``encode_matrix`` calls, where populate used to make them); the
    stripes the verify re-encodes are the ones a rebuild ``put`` took off
    their codeword."""
    real, real_matrix = RSCode.encode, RSCode.encode_matrix
    calls = []
    made = []

    def counted(self, data_blocks):
        frame = sys._getframe(1)
        if frame.f_code is ECFS.stale_parity_rows.__code__:
            calls.append(frame.f_locals["deltas"] is not None)
        return real(self, data_blocks)

    def made_rows(self, data):
        made.append(1)
        return real_matrix(self, data)

    monkeypatch.setattr(RSCode, "encode", counted)
    monkeypatch.setattr(RSCode, "encode_matrix", made_rows)
    ScenarioRunner(get_scenario("bg-storm-crash-recovery")).run(7)
    assert len(calls) == 27
    assert sum(calls) == 0  # encodes of deltas
    assert len(made) == 24
