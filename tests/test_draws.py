"""`Draws`, the audit corpus's replay of numpy's PCG64 stream, against numpy.

Every draw must equal the one ``np.random.default_rng(seed)`` makes at the
same point of any interleaving, so the audits and gamma-star keep their
outputs to the byte. The numpy sampler below is the reference the corpus
sampler replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsim.channel import Draws, tile
from loopsim.cli.runner import _tagged_sampler
from loopsim.meanings import Meaning
from loopsim.measures.audit import default_sampler

# Lemire's threshold 2**32 % k is about 2**31 for these: half the draws are rejected.
REJECTING = [2**31 + 1, 3 * 2**30]
BOUNDS = [1, 2, 3, 4, 5, 17, 65, 2**32 - 1, 2**32, *REJECTING]

OPS = st.one_of(
    st.tuples(st.just("bits"), st.tuples(st.integers(0, 150))),
    st.tuples(st.just("below"), st.tuples(st.sampled_from(BOUNDS) | st.integers(1, 2**32))),
    st.just(("random", ())),
)


def numpy_bits(rng, n):
    return "".join("1" if b else "0" for b in rng.integers(0, 2, size=n))


def numpy_draw(rng, op, args):
    if op == "bits":
        return numpy_bits(rng, *args)
    if op == "below":
        return int(rng.integers(0, *args))
    return rng.random()


def numpy_sampler(rng, max_len=64):
    """The audit corpus as it was drawn through the Generator."""
    n = int(rng.integers(0, max_len + 1))
    style = rng.random()
    if style < 0.6:
        return Meaning(numpy_bits(rng, n))
    if style < 0.8:
        return Meaning(("1" if rng.random() < 0.5 else "0") * n)
    period = int(rng.integers(1, 5))
    return Meaning(tile(numpy_bits(rng, period), n))


def numpy_tagged_sampler(rng):
    m = numpy_sampler(rng, 16)
    return Meaning(m.symbols, tag="1" if rng.random() < 0.5 else "2")


def assert_replays(seed, ops):
    draws, rng = Draws(seed), np.random.default_rng(seed)
    for op, args in ops:
        assert getattr(draws, op)(*args) == numpy_draw(rng, op, args)
    assert draws.random() == rng.random()
    assert draws.bits(3) == numpy_bits(rng, 3)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), ops=st.lists(OPS, max_size=60))
def test_interleaved_draws_equal_numpy(seed, ops):
    assert_replays(seed, ops)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32), ops=st.lists(OPS, max_size=60),
       block=st.integers(1, 5))
def test_interleaved_draws_equal_numpy_across_blocks(seed, ops, block):
    # Strings and kept half-words that cross block boundaries.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("loopsim.channel._DRAWS_BLOCK_WORDS", block)
        assert_replays(seed, ops)


@pytest.mark.parametrize("k", REJECTING)
def test_lemire_rejection_redraws(k):
    # A seed whose first 32-bit draw is rejected, so below() must draw again.
    def first_draw(seed):
        return int(np.random.PCG64(seed).random_raw()) & 0xFFFFFFFF

    seed = next(s for s in range(100) if (first_draw(s) * k) & 0xFFFFFFFF < 2**32 % k)
    draws, rng = Draws(seed), np.random.default_rng(seed)
    assert [draws.below(k) for _ in range(50)] == [int(rng.integers(0, k)) for _ in range(50)]
    assert draws.random() == rng.random()


@pytest.mark.parametrize("max_len", [64, 16])
def test_default_sampler_equals_numpy_sampler(max_len):
    for seed in range(100):
        draws, rng = Draws(seed), np.random.default_rng(seed)
        for _ in range(400):
            assert default_sampler(draws, max_len) == numpy_sampler(rng, max_len)


def test_tagged_sampler_equals_numpy_sampler():
    for seed in range(100):
        draws, rng = Draws(seed), np.random.default_rng(seed)
        for _ in range(400):
            assert _tagged_sampler(draws) == numpy_tagged_sampler(rng)
