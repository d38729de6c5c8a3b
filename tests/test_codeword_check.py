"""The codeword check: stripes verified from their deltas, parity made late.

Random-fill populate stands each stripe's k+m blocks on the rows of one
named codeword and encodes the parity rows only when a reader first needs
their bytes.  While a stripe's blocks still stand on that codeword,
:meth:`ECFS.stale_parity_rows` checks each parity delta against the encode
of the data deltas, and :meth:`GroundTruth.verify_stripe` compares the
store's and the oracle's data deltas.  These tests hold that check to the
content check it replaces: the same rows, the same byte counts, the same
verdicts and results, and no parity base made on the way.
"""

from __future__ import annotations

import dataclasses
import sys

import numpy as np
import pytest

from repro.cluster import BlockId, ClusterConfig, ECFS, GroundTruth
from repro.common.errors import IntegrityError
from repro.ec.rs import RSCode
from repro.fault import get_scenario
from repro.fault.digest import cluster_digest
from repro.fault.runner import ScenarioRunner
from repro.gf.field import gf_mul_scalar
from repro.harness.runner import ExperimentConfig, run_experiment
from repro.storage.blockstore import BlockStore

_BS = 1 << 12


def _stripe(k: int = 4, m: int = 2) -> tuple[ECFS, int]:
    ecfs = ECFS(
        ClusterConfig(n_osds=k + m + 2, k=k, m=m, block_size=_BS, seed=41), "fo"
    )
    (fid,) = ecfs.populate(n_files=1, stripes_per_file=1, fill="random")
    return ecfs, fid


def _both_checks(ecfs: ECFS, fid: int) -> tuple[dict, dict]:
    """Stripe 0's stale rows from the deltas, then from the contents.  The
    delta check reads no block's bytes."""
    width = ecfs.rs.k + ecfs.rs.m
    bids = [BlockId(fid, 0, i) for i in range(width)]
    stores = [ecfs.osd_hosting(bid).store for bid in bids]
    pairs = [store.named_base(bid) for store, bid in zip(stores, bids)]

    def no_read(i):
        raise AssertionError(f"the delta check read block {i}")

    by_deltas = ecfs.stale_parity_rows(fid, 0, None, no_read, pairs)
    by_content = ecfs.stale_parity_rows(
        fid, 0, None, lambda i: stores[i].view(bids[i]), None
    )
    return by_deltas, by_content


def _block(ecfs: ECFS, fid: int, i: int) -> tuple[BlockStore, BlockId]:
    bid = BlockId(fid, 0, i)
    return ecfs.osd_hosting(bid).store, bid


# ------------------------------------------------- (b) one flipped byte
@pytest.mark.parametrize(
    "where, want",
    [
        ("data delta", {0: 1, 1: 1}),
        ("parity delta", {1: 1}),
        ("corrupt data", {0: 4, 1: 4}),
        ("corrupt parity", {0: 4}),
    ],
)
def test_a_flipped_byte_reports_the_content_checks_rows_and_counts(where, want):
    ecfs, fid = _stripe()
    assert _both_checks(ecfs, fid) == ({}, {})
    if where == "data delta":
        store, bid = _block(ecfs, fid, 1)
        store.xor_in(bid, 100, np.array([0x01], dtype=np.uint8))
    elif where == "parity delta":
        store, bid = _block(ecfs, fid, 5)
        store.xor_in(bid, 200, np.array([0x80], dtype=np.uint8))
    else:
        store, bid = _block(ecfs, fid, 2 if where == "corrupt data" else 4)
        store.corrupt(bid, 300, 4)
    by_deltas, by_content = _both_checks(ecfs, fid)
    assert by_deltas == by_content == want


def test_random_mutations_agree_with_the_content_check():
    """Writes, XORs and corruptions anywhere in an RS(6,4) stripe, each
    data write sometimes carried to every parity row as its Eq. (5) delta,
    and now and then a resync by ``xor_in`` that makes the stripe clean
    again: after every step the two checks report the same rows and
    counts."""
    rng = np.random.default_rng(5)
    ecfs, fid = _stripe(6, 4)
    k, width = ecfs.rs.k, ecfs.rs.k + ecfs.rs.m
    seen_clean = seen_stale = 0
    for _ in range(120):
        i = int(rng.integers(width))
        store, bid = _block(ecfs, fid, i)
        off = int(rng.integers(_BS - 64))
        size = int(rng.integers(1, 64))
        op = rng.integers(4)
        if op == 3:  # land each parity row's difference from the encode
            data = [_block(ecfs, fid, d) for d in range(k)]
            want = ecfs.rs.encode([st.read(b) for st, b in data])
            for j in range(ecfs.rs.m):
                pstore, pbid = _block(ecfs, fid, k + j)
                pstore.xor_in(pbid, 0, want[j] ^ pstore.read(pbid))
        elif op == 0:  # an update; a data one may land its parity deltas too
            new = rng.integers(0, 256, size, dtype=np.uint8)
            delta = new ^ store.read(bid, off, size)
            store.write(bid, off, new)
            if i < k and rng.random() < 0.7:
                for j in range(ecfs.rs.m):
                    pstore, pbid = _block(ecfs, fid, k + j)
                    pdelta = gf_mul_scalar(int(ecfs.rs.coding[j, i]), delta)
                    pstore.xor_in(pbid, off, pdelta)
        elif op == 1:
            store.xor_in(bid, off, rng.integers(0, 256, size, dtype=np.uint8))
        else:
            store.corrupt(bid, off, size)
        by_deltas, by_content = _both_checks(ecfs, fid)
        assert by_deltas == by_content
        seen_clean += not by_content
        seen_stale += bool(by_content)
    assert seen_clean and seen_stale


def test_a_put_takes_the_stripe_off_its_codeword():
    """A rebuild, migration or resync ``put`` replaces a base: the stripe
    is checked by content from then on, and still reads clean."""
    ecfs, fid = _stripe()
    store, bid = _block(ecfs, fid, 4)
    store.put(bid, store.read(bid))
    assert store.named_base(bid) is None
    blocks = [_block(ecfs, fid, i) for i in range(6)]
    pairs = [st.named_base(b) for st, b in blocks]
    assert ecfs._codeword_deltas(pairs) is None
    read = [st.view(b) for st, b in blocks].__getitem__
    assert ecfs.stale_parity_rows(fid, 0, None, read, pairs) == {}
    store.xor_in(bid, 9, np.array([1, 2], dtype=np.uint8))
    assert ecfs.stale_parity_rows(fid, 0, None, read, pairs) == {0: 2}


def test_verify_reports_a_diverging_data_block_in_the_same_words():
    """A data block the oracle never saw written: the store's and the
    oracle's deltas differ in the bytes the contents do."""
    ecfs, fid = _stripe()
    store, bid = _block(ecfs, fid, 2)
    store.write(bid, 10, np.arange(7, dtype=np.uint8))
    with pytest.raises(IntegrityError) as by_deltas:
        ecfs.verify()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(BlockStore, "named_base", lambda self, block_id: None)
        with pytest.raises(IntegrityError) as by_content:
            ecfs.verify()
    assert str(by_deltas.value) == str(by_content.value)
    assert "data block 2 diverges from oracle in 7 bytes" in str(by_content.value)


# ------------------------------------------ (a) the check changes no result
def _content_only_verify(monkeypatch) -> None:
    """Verify as before the codeword check: no block has a named base while
    the oracle checks a stripe (the digest still hashes base names)."""
    real = GroundTruth.verify_stripe

    def content_only(self, *args):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(BlockStore, "named_base", lambda store, block_id: None)
            return real(self, *args)

    monkeypatch.setattr(GroundTruth, "verify_stripe", content_only)


def _scenario_outcome(name: str) -> tuple:
    result = ScenarioRunner(get_scenario(name)).run(7)
    reports = [dataclasses.asdict(r) for r in result.scrub_reports]
    return result.digest, reports, result.stripes_verified


def _tsue_cell_outcome() -> tuple:
    cfg = ExperimentConfig(
        trace="alicloud", k=4, m=2, n_osds=10, n_clients=4, n_ops=200,
        block_size=1 << 16, log_unit_size=1 << 17, n_files=2,
        stripes_per_file=3, seed=9, verify=True,
    )
    ecfs = run_experiment(cfg, keep_cluster=True).ecfs
    return cluster_digest(ecfs), ecfs.verify()


@pytest.mark.parametrize(
    "name", ["bg-storm-crash-recovery", "bg-scrub-under-load", "scrub-repair"]
)
def test_the_codeword_check_changes_no_scenario_result(name, monkeypatch):
    with_check = _scenario_outcome(name)
    _content_only_verify(monkeypatch)
    assert _scenario_outcome(name) == with_check
    assert with_check[1] and with_check[2]  # the scenario scrubs and verifies


def test_the_codeword_check_changes_no_tsue_cell_result(monkeypatch):
    with_check = _tsue_cell_outcome()
    _content_only_verify(monkeypatch)
    assert _tsue_cell_outcome() == with_check
    assert with_check[1] == 6


# ------------------------------------------------- (c) nothing is encoded
def test_a_verified_tsue_run_makes_no_parity_base(monkeypatch):
    """Random fill, write-only alicloud, drained and verified: TSUE's parity
    deltas land by ``xor_in``, which needs no base, so no stripe's parity
    rows are ever encoded, and populate encodes nothing at all; every
    touched stripe is checked from its deltas."""
    calls = {"populate": 0, "encode_matrix": 0, "by_deltas": 0}
    real_encode, real_matrix = RSCode.encode, RSCode.encode_matrix
    real_deltas = ECFS._codeword_deltas

    def encode(self, blocks):
        if sys._getframe(1).f_code is ECFS.populate.__code__:
            calls["populate"] += 1
        return real_encode(self, blocks)

    def encode_matrix(self, data):
        calls["encode_matrix"] += 1
        return real_matrix(self, data)

    def codeword_deltas(self, pairs):
        deltas = real_deltas(self, pairs)
        calls["by_deltas"] += deltas is not None
        return deltas

    monkeypatch.setattr(RSCode, "encode", encode)
    monkeypatch.setattr(RSCode, "encode_matrix", encode_matrix)
    monkeypatch.setattr(ECFS, "_codeword_deltas", codeword_deltas)
    digest, verified = _tsue_cell_outcome()
    assert verified == 6
    assert calls["populate"] == calls["encode_matrix"] == 0
    assert calls["by_deltas"] > 0


def test_a_reader_makes_the_stripes_parity_once():
    """The first read of any parity base encodes the stripe's m rows in one
    call; later reads, of that row or another, encode nothing."""
    calls = []
    real = RSCode.encode_matrix
    with pytest.MonkeyPatch.context() as m:
        m.setattr(
            RSCode, "encode_matrix", lambda self, d: calls.append(1) or real(self, d)
        )
        ecfs, fid = _stripe()
        assert calls == []
        for i in (4, 5, 4):
            store, bid = _block(ecfs, fid, i)
            store.read(bid, 0, 16)
        assert len(calls) == 1
