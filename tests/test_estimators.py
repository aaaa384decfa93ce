"""The collision and entropy estimators against per-sample loops.

The estimators rebuild each trial from raw PCG64 words; the loops below draw
the same trials through the Generator one meaning at a time, as the
estimators did before. Their floats must be equal, not close.
"""

import math
from collections import Counter

import numpy as np
import pytest

from loopsim.channel import (
    ChannelSpec,
    Draws,
    PsiKind,
    apply_psi,
    constant_mask,
    context_tag,
    derive_seed,
    entropy_estimate,
    epsilon_at,
    estimate_collision_rate,
    power_law_mask,
    tag_hasher,
)
from loopsim.engine import ContextState, Mode


def join_bits(rng, n):
    """The bit sampler as a per-bit join."""
    return "".join("1" if b else "0" for b in rng.integers(0, 2, size=n))


def loop_noise(spec, rng):
    if spec.temperature == 0.0:
        return "0" * spec.noise_len
    return join_bits(rng, spec.noise_len)


def loop_collision_rate(spec, c, trials, seed=0):
    rng = np.random.default_rng(derive_seed(seed, "collision"))
    eps = epsilon_at(1, spec.mask_rate)
    tag = context_tag(c.symbols, c.norm, tag_hasher(c.symbols))

    def meaning():  # the noise, then the valve's coin
        noise = loop_noise(spec, rng)
        return apply_psi(noise, tag, c.norm, 0, spec, eps > 0.0 and rng.random() < eps)

    return sum(meaning() == meaning() for _ in range(trials)) / trials


def loop_entropy(spec, samples, seed=0):
    rng = np.random.default_rng(derive_seed(seed, "entropy"))
    counts = Counter(loop_noise(spec, rng) for _ in range(samples))
    total = sum(counts.values())
    entropy = 0.0
    for count in counts.values():
        p = count / total
        entropy -= p * math.log2(p)
    return entropy


def channel(psi, noise_len, temperature, mask, **kwargs):
    return ChannelSpec(psi_kind=psi, noise_len=noise_len, temperature=temperature,
                       mask_rate=mask, seed=3, **kwargs)


PSI = {
    "identity": {},
    "tagged": {},
    "constant": {"const_meaning": "101"},
    "constant_empty": {"const_meaning": ""},
    "gated_lo": {"gamma_true": 50.0, "gain_lo": 0, "gain_hi": 5},
    "gated_hi": {"gamma_true": 2.0, "gain_lo": 1, "gain_hi": 5},
    "mirror": {},
    "decaying": {"decay_len": 3.0},
}
KINDS = {"identity": PsiKind.IDENTITY, "tagged": PsiKind.TAGGED_INJECTIVE,
         "constant": PsiKind.CONSTANT, "constant_empty": PsiKind.CONSTANT,
         "gated_lo": PsiKind.GATED, "gated_hi": PsiKind.GATED,
         "mirror": PsiKind.MIRROR, "decaying": PsiKind.DECAYING}
MASKS = [constant_mask(0.0), constant_mask(0.4), power_law_mask(0.05, 0.5, 0.7)]
CONTEXTS = [ContextState(Mode.ABSTRACT, norm=6.0),
            ContextState(Mode.CONCRETE, norm=3.0, symbols="011")]


@pytest.mark.parametrize("psi", sorted(PSI))
@pytest.mark.parametrize("noise_len", [1, 2, 3, 4, 7, 8, 65])
def test_collision_rate_equals_loop(psi, noise_len):
    for temperature in (0.0, 1.0):
        for mask in MASKS:
            for c in CONTEXTS:
                spec = channel(KINDS[psi], noise_len, temperature, mask, **PSI[psi])
                for trials, seed in ((1, 0), (7, 1), (201, 2)):
                    assert estimate_collision_rate(spec, c, trials, seed=seed) \
                        == loop_collision_rate(spec, c, trials, seed=seed)


def test_collision_rate_equals_loop_across_blocks(monkeypatch):
    # Trials that span several blocks, with a leftover half-word in each.
    monkeypatch.setattr("loopsim.channel._BLOCK_WORDS", 64)
    for mask in MASKS:
        spec = channel(PsiKind.IDENTITY, 3, 1.0, mask)
        assert estimate_collision_rate(spec, CONTEXTS[0], 1_001, seed=5) \
            == loop_collision_rate(spec, CONTEXTS[0], 1_001, seed=5)


@pytest.mark.parametrize("noise_len", [1, 2, 3, 5, 8, 13, 65])
def test_entropy_equals_loop(noise_len):
    for temperature in (0.0, 1.0):
        spec = channel(PsiKind.IDENTITY, noise_len, temperature, constant_mask(0.0))
        for samples, seed in ((1, 0), (2, 1), (9, 2), (3_001, 3)):
            assert entropy_estimate(spec, samples, seed=seed) \
                == loop_entropy(spec, samples, seed=seed)


@pytest.mark.parametrize("noise_len", [1, 3, 8])
def test_entropy_equals_loop_across_blocks(monkeypatch, noise_len):
    # Blocks of 2 * (48 // noise_len) samples; repeats span blocks.
    monkeypatch.setattr("loopsim.channel._BLOCK_WORDS", 48)
    spec = channel(PsiKind.IDENTITY, noise_len, 1.0, constant_mask(0.0))
    assert entropy_estimate(spec, 1_001, seed=7) == loop_entropy(spec, 1_001, seed=7)


@pytest.mark.parametrize("n", [0, 1, 8, 64, 500])
def test_random_bits_equals_join(n):
    draws, rng = Draws(n), np.random.default_rng(n)
    assert draws.bits(n) == join_bits(rng, n)
    assert draws.random() == rng.random()
