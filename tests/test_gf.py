"""Unit + property tests for GF(2^8) arithmetic and matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import DecodeError
from repro.gf import (
    gf_div,
    gf_inv,
    gf_mat_inv,
    gf_mat_mul,
    gf_mat_rank,
    gf_matmul,
    gf_mul,
    gf_mul_scalar,
    gf_pow,
    identity,
)
from repro.gf.field import _CHUNK, _MUL

scalars = st.integers(min_value=0, max_value=255)
nonzero = st.integers(min_value=1, max_value=255)


# ------------------------------------------------------------------ field
def test_mul_identity_and_zero():
    a = np.arange(256, dtype=np.uint8)
    assert np.array_equal(gf_mul(a, np.uint8(1)), a)
    assert not gf_mul(a, np.uint8(0)).any()


@given(nonzero, nonzero)
def test_mul_commutative(a, b):
    assert gf_mul(np.uint8(a), np.uint8(b)) == gf_mul(np.uint8(b), np.uint8(a))


@given(scalars, scalars, scalars)
def test_mul_associative(a, b, c):
    ab_c = gf_mul(gf_mul(np.uint8(a), np.uint8(b)), np.uint8(c))
    a_bc = gf_mul(np.uint8(a), gf_mul(np.uint8(b), np.uint8(c)))
    assert ab_c == a_bc


@given(scalars, scalars, scalars)
def test_mul_distributes_over_add(a, b, c):
    left = gf_mul(np.uint8(a), np.uint8(b ^ c))
    right = gf_mul(np.uint8(a), np.uint8(b)) ^ gf_mul(np.uint8(a), np.uint8(c))
    assert left == right


@given(nonzero)
def test_inverse_roundtrip(a):
    assert gf_mul(np.uint8(a), np.uint8(gf_inv(a))) == 1


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        gf_inv(0)


@given(scalars, nonzero)
def test_div_is_mul_by_inverse(a, b):
    assert gf_div(np.uint8(a), np.uint8(b)) == gf_mul(np.uint8(a), np.uint8(gf_inv(b)))


def test_div_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        gf_div(np.uint8(3), np.uint8(0))


@given(nonzero, st.integers(min_value=0, max_value=300))
def test_pow_matches_repeated_mul(a, n):
    expected = 1
    for _ in range(n):
        expected = int(gf_mul(np.uint8(expected), np.uint8(a)))
    assert gf_pow(a, n) == expected


def test_pow_negative_raises():
    with pytest.raises(ValueError):
        gf_pow(2, -1)


def test_mul_scalar_matches_elementwise():
    """Every coefficient, over every memory layout of ``_LAYOUTS``, an empty
    row and a strided 2-D array: the table product, fresh and writable."""
    rng = np.random.default_rng(0)
    inputs = [_laid_out(rng, 4097, layout)[0] for layout in _LAYOUTS]
    inputs.append(np.zeros(0, dtype=np.uint8))
    inputs.append(rng.integers(0, 256, (6, 40), dtype=np.uint8)[:, ::2])
    for data in inputs:
        for coef in range(256):
            out = gf_mul_scalar(coef, data)
            assert out.shape == data.shape
            assert np.array_equal(out, _MUL[coef][data])
            assert out.flags.writeable
            assert not np.shares_memory(out, data)


def test_mul_scalar_out_of_range():
    with pytest.raises(ValueError):
        gf_mul_scalar(256, np.zeros(4, dtype=np.uint8))


def test_mul_scalar_returns_copy():
    data = np.ones(8, dtype=np.uint8)
    out = gf_mul_scalar(1, data)
    out[0] = 99
    assert data[0] == 1


# ----------------------------------------------------- fused matrix kernel
#: row lengths: empty, the odd-tail-only case, one pair, odd, 4 KiB + 1, and
#: more than one gather chunk (odd, so chunking and the tail meet)
_MATMUL_LENGTHS = (0, 1, 2, 255, 4097, 2 * _CHUNK + 4099)
_LAYOUTS = ("plain", "odd-offset", "strided", "read-only")


def _laid_out(rng, n, layout):
    """A length-``n`` uint8 row in the given memory layout, and its buffer."""
    if layout == "strided":
        buf = rng.integers(0, 256, 2 * n, dtype=np.uint8)
        return buf[::2], buf
    buf = rng.integers(0, 256, n + 1, dtype=np.uint8)
    row = buf[1:] if layout == "odd-offset" else buf[:n]
    if layout == "read-only":
        row.flags.writeable = False
    return row, buf


@settings(max_examples=60, deadline=None)
@given(
    r=st.integers(min_value=1, max_value=9),  # 5 and 9 cross a four-row group
    c=st.integers(min_value=1, max_value=8),
    n=st.sampled_from(_MATMUL_LENGTHS),
    layouts=st.lists(st.sampled_from(_LAYOUTS), min_size=8, max_size=8),
    special=st.sampled_from(("none", "zero-row", "zero-col", "ones", "binary")),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_matmul_equals_reference(r, c, n, layouts, special, seed):
    """The fused kernel is ``gf_mat_mul`` on the stacked rows, whatever the
    group count, row length, coefficient pattern or memory layout — and it
    neither writes to its inputs nor hands back memory it shares with them."""
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, 256, (r, c), dtype=np.uint8)
    if special == "zero-row":
        matrix[rng.integers(r)] = 0
    elif special == "zero-col":
        matrix[:, rng.integers(c)] = 0
    elif special == "ones":
        matrix[rng.integers(r), rng.integers(c)] = 1
    elif special == "binary":
        matrix &= 1
    rows, bufs = zip(*(_laid_out(rng, n, layouts[j]) for j in range(c)))
    before = [buf.copy() for buf in bufs]

    out = gf_matmul(matrix, rows)

    assert out.shape == (r, n) and out.dtype == np.uint8
    assert np.array_equal(out, gf_mat_mul(matrix, np.stack(rows)))
    assert all(np.array_equal(buf, was) for buf, was in zip(bufs, before))
    assert out.flags.writeable
    assert not any(np.shares_memory(out, buf) for buf in bufs)


def test_matmul_accepts_a_2d_block_matrix():
    rng = np.random.default_rng(5)
    matrix = rng.integers(0, 256, (3, 4), dtype=np.uint8)
    data = rng.integers(0, 256, (4, 1001), dtype=np.uint8)
    assert np.array_equal(gf_matmul(matrix, data), gf_mat_mul(matrix, data))
    assert np.array_equal(gf_matmul(matrix, list(data)), gf_mat_mul(matrix, data))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_matmul_is_linear_over_xor(seed):
    """Field addition is XOR and the block kernel is linear over it, the
    property Eq. (2)'s parity delta rests on."""
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, 256, (3, 4), dtype=np.uint8)
    a = rng.integers(0, 256, (4, 257), dtype=np.uint8)
    b = rng.integers(0, 256, (4, 257), dtype=np.uint8)
    assert np.array_equal(
        gf_matmul(matrix, a ^ b), gf_matmul(matrix, a) ^ gf_matmul(matrix, b)
    )


def test_matmul_rejects_mismatched_shapes():
    matrix = np.ones((2, 3), dtype=np.uint8)
    row = np.zeros(8, dtype=np.uint8)
    with pytest.raises(ValueError):
        gf_matmul(matrix, [row, row])  # three columns, two rows
    with pytest.raises(ValueError):
        gf_matmul(matrix, [row, row, row[:7]])
    with pytest.raises(ValueError):
        gf_matmul(matrix, [row.reshape(2, 4)] * 3)
    with pytest.raises(ValueError):
        gf_matmul(matrix[0], [row])  # not a matrix


# ----------------------------------------------------------------- matrix
def test_identity_is_multiplicative_identity():
    rng = np.random.default_rng(1)
    m = rng.integers(0, 256, (5, 5), dtype=np.uint8)
    assert np.array_equal(gf_mat_mul(identity(5), m), m)
    assert np.array_equal(gf_mat_mul(m, identity(5)), m)


@settings(max_examples=25)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31))
def test_matrix_inverse_roundtrip(n, seed):
    rng = np.random.default_rng(seed)
    # random matrices over GF(256) are invertible with high probability;
    # retry until one is
    for _ in range(20):
        m = rng.integers(0, 256, (n, n), dtype=np.uint8)
        if gf_mat_rank(m) == n:
            break
    else:
        pytest.skip("no invertible matrix found")
    inv = gf_mat_inv(m)
    assert np.array_equal(gf_mat_mul(inv, m), identity(n))
    assert np.array_equal(gf_mat_mul(m, inv), identity(n))


def test_singular_matrix_raises():
    m = np.array([[1, 2], [1, 2]], dtype=np.uint8)
    with pytest.raises(DecodeError):
        gf_mat_inv(m)


def test_non_square_inverse_rejected():
    with pytest.raises(ValueError):
        gf_mat_inv(np.zeros((2, 3), dtype=np.uint8))


def test_rank_of_rectangular():
    m = np.array([[1, 0, 0], [0, 1, 0]], dtype=np.uint8)
    assert gf_mat_rank(m) == 2
    m2 = np.array([[1, 2, 3], [2, 4, 6]], dtype=np.uint8)
    # row 2 = 2 * row 1 over GF(256)? 2*3 = 6 in GF(256), 2*2=4, 2*1=2 -> yes
    assert gf_mat_rank(m2) == 1


def test_mat_mul_shape_mismatch():
    with pytest.raises(ValueError):
        gf_mat_mul(np.zeros((2, 3), dtype=np.uint8), np.zeros((2, 3), dtype=np.uint8))
