"""Tests for the ground-truth integrity oracle itself."""

import numpy as np
import pytest

from repro.cluster import BlockId, ClusterConfig, ECFS, GroundTruth
from repro.common.errors import IntegrityError


def _cluster():
    return ECFS(
        ClusterConfig(n_osds=10, k=4, m=2, block_size=1 << 14, seed=41),
        method="fo",
    )


def test_oracle_apply_and_expected():
    gt = GroundTruth(1024)
    data = np.arange(100, dtype=np.uint8)
    gt.apply(BlockId(1, 0, 0), 10, data)
    out = gt.expected(BlockId(1, 0, 0))
    assert np.array_equal(out[10:110], data)
    assert (out[:10] == 0).all()
    assert gt.applied_updates == 1


def test_oracle_bounds():
    gt = GroundTruth(64)
    with pytest.raises(IntegrityError):
        gt.apply(BlockId(1, 0, 0), 60, np.ones(10, dtype=np.uint8))


def test_oracle_detects_corrupted_data_block():
    ecfs = _cluster()
    files = ecfs.populate(n_files=1, stripes_per_file=1, fill="random")
    bid = BlockId(files[0], 0, 0)
    osd = ecfs.osd_hosting(bid)
    osd.store.write(bid, 0, np.zeros(16, dtype=np.uint8))  # corrupt silently
    with pytest.raises(IntegrityError, match="diverges"):
        ecfs.verify()


def test_oracle_detects_stale_parity():
    ecfs = _cluster()
    files = ecfs.populate(n_files=1, stripes_per_file=1, fill="random")
    pbid = BlockId(files[0], 0, 4)  # first parity block
    osd = ecfs.osd_hosting(pbid)
    osd.store.xor_in(pbid, 0, np.full(16, 0xFF, dtype=np.uint8))
    with pytest.raises(IntegrityError, match="parity"):
        ecfs.verify()


def test_verify_after_a_clean_verify_still_sees_a_stale_parity_put():
    """A clean verify records the stripe; a parity block put back with
    stale bytes takes a new generation, so the next verify re-encodes —
    and the same bytes put again re-encode clean."""
    ecfs = _cluster()
    files = ecfs.populate(n_files=1, stripes_per_file=2, fill="random")
    pbid = BlockId(files[0], 1, 5)  # parity 1 of stripe 1
    store = ecfs.osd_hosting(pbid).store
    good = store.read(pbid)
    assert ecfs.verify() == 2
    store.put(pbid, good ^ 1)
    with pytest.raises(IntegrityError, match="parity block 1 stale"):
        ecfs.verify()
    store.put(pbid, good)
    assert ecfs.verify() == 2


def test_oracle_stripe_enumeration():
    gt = GroundTruth(64)
    gt.apply(BlockId(1, 0, 0), 0, np.ones(4, dtype=np.uint8))
    gt.apply(BlockId(1, 2, 1), 0, np.ones(4, dtype=np.uint8))
    gt.apply(BlockId(2, 0, 3), 0, np.ones(4, dtype=np.uint8))
    assert gt.stripes() == {(1, 0), (1, 2), (2, 0)}


def test_verify_subset_of_stripes():
    ecfs = _cluster()
    files = ecfs.populate(n_files=1, stripes_per_file=3, fill="random")
    ecfs.oracle.verify_stripe(ecfs, files[0], 1, ecfs.rs)
    assert ecfs.oracle.verify_cluster(ecfs, ecfs.rs) == 3
