"""Unit + property tests for Reed-Solomon coding and incremental updates."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError, DecodeError
from repro.ec import (
    RSCode,
    cauchy_matrix,
    coding_matrix,
    data_delta,
    parity_delta,
)
from repro.gf.field import _pair_tables
from repro.gf.matrix import gf_mat_rank


def _stripe(rs, size=1024, seed=0):
    rng = np.random.default_rng(seed)
    data = [rng.integers(0, 256, size, dtype=np.uint8) for _ in range(rs.k)]
    return data, rs.encode(data)


# ----------------------------------------------------------------- matrices
def test_cauchy_full_rank_rows():
    m = cauchy_matrix(6, 3)
    assert m.shape == (3, 6)
    assert gf_mat_rank(m) == 3


def test_cauchy_every_square_submatrix_is_invertible():
    """The Cauchy property, which makes ``[I; C]`` MDS: any k of the k + m
    blocks of an RS(6, 4) stripe decode, checked on every erasure pattern
    rather than sampled."""
    m = coding_matrix(6, 4)
    for r in range(1, 5):
        for rows in combinations(range(4), r):
            for cols in combinations(range(6), r):
                assert gf_mat_rank(m[np.ix_(rows, cols)]) == r, (rows, cols)


def test_coding_matrix_rejects_overflow():
    with pytest.raises(ConfigError):
        coding_matrix(200, 100)


# ---------------------------------------------------------------- RS basics
def test_encode_shapes_and_verify():
    rs = RSCode(4, 2)
    data, parity = _stripe(rs)
    assert len(parity) == 2
    assert all(p.shape == (1024,) for p in parity)
    assert rs.verify(data, parity)


def test_verify_detects_corruption():
    rs = RSCode(4, 2)
    data, parity = _stripe(rs)
    parity[0][10] ^= 0xFF
    assert not rs.verify(data, parity)


def test_unequal_block_sizes_rejected():
    rs = RSCode(2, 1)
    with pytest.raises(ConfigError):
        rs.encode([np.zeros(8, dtype=np.uint8), np.zeros(9, dtype=np.uint8)])


def test_bad_geometry_rejected():
    with pytest.raises(ConfigError):
        RSCode(0, 2)
    with pytest.raises(ConfigError):
        RSCode(2, 0)


def _full_stripe(rs, size, seed):
    data, parity = _stripe(rs, size=size, seed=seed)
    return dict(enumerate(data + parity))


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(min_value=2, max_value=8),
    # m = 3 pads a table word, m > 4 spans two output-row groups
    m=st.integers(min_value=1, max_value=6),
    size=st.sampled_from((1, 255, 256, 4097)),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_any_m_erasures_recoverable(k, m, size, seed):
    rng = np.random.default_rng(seed)
    rs = RSCode(k, m)
    full = _full_stripe(rs, size, seed)
    erased = sorted(rng.choice(k + m, size=m, replace=False).tolist())
    survivors = {i: v for i, v in full.items() if i not in erased}
    rebuilt = rs.decode(survivors, erased)
    assert sorted(rebuilt) == erased
    for e in erased:
        assert np.array_equal(rebuilt[e], full[e])


def test_mixed_data_and_parity_erasure_matches_fresh_encode():
    rs = RSCode(6, 4)
    full = _full_stripe(rs, 4096, seed=11)
    erased = [1, 4, 7, 9]  # two data blocks, two parity blocks
    survivors = {i: v for i, v in full.items() if i not in erased}
    rebuilt = rs.decode(survivors, erased)
    data = [rebuilt.get(i, full[i]) for i in range(6)]
    fresh = rs.encode(data)
    for e in erased:
        want = full[e] if e < 6 else fresh[e - 6]
        assert np.array_equal(rebuilt[e], want)
        assert rebuilt[e].flags.writeable  # recovery replays updates onto it


def test_too_many_erasures_rejected():
    rs = RSCode(4, 2)
    data, parity = _stripe(rs)
    full = {i: b for i, b in enumerate(data)}
    full.update({4 + j: p for j, p in enumerate(parity)})
    survivors = {i: v for i, v in full.items() if i > 2}
    with pytest.raises(DecodeError):
        rs.decode(survivors, [0, 1, 2])


def test_decode_with_no_erasures_is_empty():
    rs = RSCode(3, 2)
    data, parity = _stripe(rs)
    assert rs.decode({i: b for i, b in enumerate(data)}, []) == {}


def test_decode_insufficient_survivors():
    rs = RSCode(4, 2)
    data, _ = _stripe(rs)
    with pytest.raises(DecodeError):
        rs.decode({0: data[0], 1: data[1]}, [2])


def test_decode_rejects_available_index_outside_stripe():
    """A stray key is a DecodeError like every other undecodable request,
    not a numpy IndexError from indexing the generator matrix."""
    rs = RSCode(4, 2)
    data, _ = _stripe(rs)
    with pytest.raises(DecodeError):
        rs.decode({0: data[0], 1: data[1], 2: data[2], 9: data[3]}, [3])
    with pytest.raises(DecodeError):
        rs.decode({-1: data[0], 1: data[1], 2: data[2], 3: data[3]}, [0])


def test_verify_checks_parity_count_before_encoding(monkeypatch):
    rs = RSCode(4, 2)
    data, parity = _stripe(rs)
    encodes = []
    encode = rs.encode
    monkeypatch.setattr(rs, "encode", lambda blocks: encodes.append(1) or encode(blocks))
    assert not rs.verify(data, parity[:1])
    assert not rs.verify(data, parity + parity)
    assert not encodes
    assert rs.verify(data, parity) and encodes == [1]


# ------------------------------------------------------------ fused kernel
def test_block_path_gathers_once_per_byte_pair_per_column(monkeypatch):
    """The mechanism as a count: an encode, and a decode of one erased block
    (data or parity), each read every input byte pair through ``np.take``
    exactly once — k*n/2 gathered elements, not one per byte per coefficient
    — and never stack the blocks into a copy first."""
    rs = RSCode(4, 2)
    n = 64 * 1024  # a 256 KiB stripe
    full = _full_stripe(rs, n, seed=5)
    gathered = []
    take = np.take

    def counting_take(a, indices, *args, **kwargs):
        gathered.append(np.size(indices))
        return take(a, indices, *args, **kwargs)

    def no_stack(*args, **kwargs):
        raise AssertionError("np.stack copies the stripe")

    monkeypatch.setattr(np, "take", counting_take)
    monkeypatch.setattr(np, "stack", no_stack)

    parity = rs.encode([full[i] for i in range(4)])
    assert sum(gathered) == rs.k * n // 2
    assert all(np.array_equal(p, full[4 + j]) for j, p in enumerate(parity))

    for erased in (2, 5):
        gathered.clear()
        survivors = {i: v for i, v in full.items() if i != erased}
        rebuilt = rs.decode(survivors, [erased])
        assert sum(gathered) == rs.k * n // 2
        assert np.array_equal(rebuilt[erased], full[erased])


def test_pair_table_cache_stays_at_its_bound():
    """Tables are cached per coefficient matrix; more distinct decode
    matrices than the LRU holds must evict, not grow."""
    rs = RSCode(6, 4)
    full = _full_stripe(rs, 64, seed=3)
    bound = _pair_tables.cache_info().maxsize
    patterns = list(combinations(range(10), 2))[: bound + 8]
    for erased in patterns:
        survivors = {i: v for i, v in full.items() if i not in erased}
        rebuilt = rs.decode(survivors, erased)
        assert all(np.array_equal(rebuilt[e], full[e]) for e in erased)
    assert _pair_tables.cache_info().currsize == bound


# --------------------------------------------------------------- increments
def test_parity_delta_matches_reencode():
    """Eq. (2): applying a_ij * (D'-D) to P gives the re-encoded parity."""
    rs = RSCode(5, 3)
    data, parity = _stripe(rs, seed=3)
    rng = np.random.default_rng(4)
    new_block = rng.integers(0, 256, 1024, dtype=np.uint8)

    delta = data_delta(new_block, data[2])
    for j in range(rs.m):
        pd = parity_delta(int(rs.coding[j, 2]), delta)
        updated = parity[j] ^ pd  # Eq. (2)'s outer sum
        reencoded = rs.encode([new_block if i == 2 else data[i] for i in range(5)])
        assert np.array_equal(updated, reencoded[j])


def test_data_delta_shape_mismatch():
    with pytest.raises(ValueError):
        data_delta(np.zeros(4, dtype=np.uint8), np.zeros(5, dtype=np.uint8))


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31))
def test_merged_deltas_telescope(n_updates, seed):
    """Eq. (3)/(4): folding n successive deltas of one address equals
    newest ^ original, and so does the parity delta of the fold."""
    rng = np.random.default_rng(seed)
    versions = [rng.integers(0, 256, 64, dtype=np.uint8) for _ in range(n_updates + 1)]
    deltas = [data_delta(versions[i + 1], versions[i]) for i in range(n_updates)]
    merged = np.bitwise_xor.reduce(deltas)
    assert np.array_equal(merged, data_delta(versions[-1], versions[0]))
    coeff = int(rng.integers(1, 256))
    folded = np.bitwise_xor.reduce([parity_delta(coeff, d) for d in deltas])
    assert np.array_equal(parity_delta(coeff, merged), folded)


def test_stripe_parity_delta_matches_full_reencode():
    """Eq. (5): the parity deltas of several data blocks at one offset,
    XOR-merged into one per parity block, equal re-encoding the stripe."""
    rs = RSCode(6, 3)
    data, parity = _stripe(rs, seed=7)
    rng = np.random.default_rng(8)
    new = {1: rng.integers(0, 256, 1024, dtype=np.uint8),
           4: rng.integers(0, 256, 1024, dtype=np.uint8)}
    block_deltas = {i: new[i] ^ data[i] for i in new}

    updated_data = [new.get(i, data[i]) for i in range(6)]
    reencoded = rs.encode(updated_data)
    for j in range(rs.m):
        pd = np.zeros(1024, dtype=np.uint8)
        for i, delta in block_deltas.items():
            pd ^= parity_delta(int(rs.coding[j, i]), delta)
        assert np.array_equal(parity[j] ^ pd, reencoded[j])
