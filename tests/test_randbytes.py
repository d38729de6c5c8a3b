"""``uniform_bytes`` is ``Generator.integers(0, 256, n, dtype=np.uint8)``.

Every random payload and every random-fill block is drawn through it, so a
byte or a generator state that differs from numpy's own draw moves every
random-fill digest.  The property runs the helper and the reference on two
generators from one seed, interleaved with draws that leave the 32-bit
buffer set (``integers(0, 10)``) or pass it by (``random``, ``exponential``),
and requires equal bytes and equal ``bit_generator.state`` after each step.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.randbytes import uniform_bytes

#: below one 32-bit draw, across the 8-byte word boundary, 4 KiB + 1, and
#: more than 1 MiB; the free range hits every n % 8
_SIZES = st.one_of(
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=5000),
    st.sampled_from((8, 9, 12, 4095, 4096, 4097, (1 << 20) + 3, (1 << 20) + 5)),
)
_FOREIGN = {
    "random": lambda rng: rng.random(),
    "integers": lambda rng: rng.integers(0, 10),
    "exponential": lambda rng: rng.exponential(),
}
_STEPS = st.one_of(_SIZES, st.sampled_from(sorted(_FOREIGN)))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       steps=st.lists(_STEPS, min_size=1, max_size=12))
def test_uniform_bytes_is_integers_0_256(seed, steps):
    ours = np.random.default_rng(seed)
    ref = np.random.default_rng(seed)
    for step in steps:
        if isinstance(step, str):
            assert _FOREIGN[step](ours) == _FOREIGN[step](ref)
        else:
            got = uniform_bytes(ours, step)
            want = ref.integers(0, 256, step, dtype=np.uint8)
            assert got.dtype == np.uint8 and got.shape == (step,)
            assert got.flags.writeable
            assert got.tobytes() == want.tobytes()
        assert ours.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize(
    "bitgen", [np.random.MT19937, np.random.Philox, np.random.SFC64, np.random.PCG64DXSM]
)
def test_uniform_bytes_rejects_other_bit_generators(bitgen):
    with pytest.raises(TypeError):
        uniform_bytes(np.random.Generator(bitgen(0)), 16)
