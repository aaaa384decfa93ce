"""Channels: reproducibility, schedules, valves, collision and entropy stats."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsim.channel import (
    ChannelSpec,
    PsiKind,
    apply_psi,
    constant_mask,
    context_tag,
    entropy_estimate,
    epsilon_array,
    epsilon_at,
    estimate_collision_rate,
    mask_stream,
    mask_u01,
    meaning_digest,
    noise_from_digest,
    power_law_mask,
    psi_output_length,
    tag_hasher,
)
from loopsim.engine import ContextState, Mode


def ctx(norm=0.0, symbols=""):
    mode = Mode.CONCRETE if symbols else Mode.ABSTRACT
    return ContextState(mode, norm=norm, symbols=symbols)


class TestNoise:
    def test_zero_temperature_is_constant(self):
        spec = ChannelSpec(temperature=0.0, noise_len=6, seed=1)
        draws = {noise_from_digest(meaning_digest(p), t, spec)
                 for p in ("", "0", "111") for t in range(5)}
        assert draws == {"000000"}

    def test_seeded_reproducibility(self):
        spec = ChannelSpec(temperature=1.0, noise_len=16, seed=42)
        a = noise_from_digest(meaning_digest("1010"), 7, spec)
        b = noise_from_digest(meaning_digest("1010"), 7, spec)
        assert a == b

    def test_distinct_steps_differ(self):
        spec = ChannelSpec(temperature=1.0, noise_len=64, seed=42)
        a = noise_from_digest(meaning_digest("1010"), 1, spec)
        b = noise_from_digest(meaning_digest("1010"), 2, spec)
        assert a != b

    def test_uniformity_of_patterns(self):
        # 10^4 draws of 8 bits: every byte pattern within 5 sigma of 1/256.
        spec = ChannelSpec(temperature=1.0, noise_len=8, seed=3)
        counts = {}
        n = 10_000
        for t in range(n):
            s = noise_from_digest(meaning_digest(""), t, spec)
            counts[s] = counts.get(s, 0) + 1
        p = 1.0 / 256.0
        sigma = math.sqrt(n * p * (1 - p))
        assert len(counts) > 200
        for count in counts.values():
            assert abs(count - n * p) <= 5.0 * sigma

    def test_long_draws(self):
        spec = ChannelSpec(temperature=1.0, noise_len=1200, seed=4)
        draw = noise_from_digest(meaning_digest(""), 0, spec)
        assert len(draw) == 1200
        assert set(draw) <= {"0", "1"}


class TestEpsilonSchedule:
    def test_constant(self):
        sched = constant_mask(0.0)
        assert [epsilon_at(t, sched) for t in (1, 10, 100)] == [0.0, 0.0, 0.0]

    def test_power_law_value(self):
        sched = power_law_mask(0.1, 0.4, 1.0)
        assert epsilon_at(4, sched) == pytest.approx(0.2)

    def test_power_law_approaches_floor(self):
        sched = power_law_mask(0.1, 0.4, 1.0)
        values = [epsilon_at(t, sched) for t in (1, 10, 100, 10_000)]
        assert values == sorted(values, reverse=True)
        assert values[-1] == pytest.approx(0.1, abs=1e-3)

    def test_rate_stays_below_one_at_entry(self):
        with pytest.raises(ValueError):
            power_law_mask(0.6, 0.5, 1.0)

    def test_array_matches_pointwise(self):
        # Bit for bit over a long horizon: Python's float power differs from
        # numpy's in the last ulp at some steps for alpha = 0.5.
        for sched in (power_law_mask(0.1, 0.4, 0.5), power_law_mask(0.05, 0.3, 0.7)):
            arr = epsilon_array(sched, 100_000)
            point = [epsilon_at(max(t, 1), sched) for t in range(100_000)]
            assert arr.tolist() == point


class TestMaskStream:
    def test_random_access_matches_stream(self):
        spec = ChannelSpec(seed=99)
        stream = mask_stream(spec, 64)
        for t in (0, 1, 5, 33, 63):
            assert mask_u01(spec, t) == stream[t]

    def test_valve_frequency(self):
        # Constant 0.3 mask over 10^5 steps: empty-output fraction within
        # 5 sigma of the rate.
        spec = ChannelSpec(
            psi_kind=PsiKind.IDENTITY, noise_len=4, seed=5,
            mask_rate=constant_mask(0.3))
        n = 100_000
        fired = (mask_stream(spec, n) < 0.3).sum()
        sigma = math.sqrt(n * 0.3 * 0.7)
        assert abs(fired - 0.3 * n) <= 5.0 * sigma


class TestPsi:
    def test_identity(self):
        spec = ChannelSpec(psi_kind=PsiKind.IDENTITY, noise_len=2, seed=0)
        n = noise_from_digest(meaning_digest(""), 0, spec)
        assert apply_psi(n, "", 0.0, 0, spec, False) == n

    def test_constant(self):
        spec = ChannelSpec(psi_kind=PsiKind.CONSTANT, const_meaning="111", seed=0)
        n = noise_from_digest(meaning_digest("0101"), 3, spec)
        assert apply_psi(n, "", 0.0, 3, spec, False) == "111"

    def test_gated_lengths(self):
        spec = ChannelSpec(
            psi_kind=PsiKind.GATED, gamma_true=50.0, gain_lo=0, gain_hi=5, seed=0)
        n = noise_from_digest(meaning_digest(""), 0, spec)
        assert len(apply_psi(n, "", 60.0, 0, spec, False)) == 5
        assert len(apply_psi(n, "", 50.0, 0, spec, False)) == 0

    def test_tagged_injective_appends_fingerprint(self):
        spec = ChannelSpec(psi_kind=PsiKind.TAGGED_INJECTIVE, noise_len=8, seed=0)
        n = noise_from_digest(meaning_digest(""), 0, spec)
        m1 = apply_psi(n, context_tag("0011", 4.0, tag_hasher("0011")),
                       4.0, 0, spec, False)
        m2 = apply_psi(n, context_tag("0111", 4.0, tag_hasher("0111")),
                       4.0, 0, spec, False)
        assert len(m1) == 8 + 16
        assert m1[:8] == n
        assert m1 != m2

    def test_mask_replaces_with_empty(self):
        spec = ChannelSpec(psi_kind=PsiKind.IDENTITY, noise_len=4, seed=0)
        n = noise_from_digest(meaning_digest(""), 0, spec)
        assert apply_psi(n, "", 0.0, 0, spec, True) == ""

    def test_output_length_table(self):
        gated = ChannelSpec(psi_kind=PsiKind.GATED, gamma_true=10, gain_lo=1,
                            gain_hi=7, seed=0)
        mirror = ChannelSpec(psi_kind=PsiKind.MIRROR, seed=0)
        decay = ChannelSpec(psi_kind=PsiKind.DECAYING, decay_len=100.0,
                            decay_power=1.0, seed=0)
        assert psi_output_length(gated, 10.0, 0) == 1
        assert psi_output_length(gated, 10.5, 0) == 7
        assert psi_output_length(mirror, 42.9, 0) == 42
        assert psi_output_length(decay, 0.0, 0) == 100
        assert psi_output_length(decay, 0.0, 9) == 10

    @pytest.mark.parametrize("kind", list(PsiKind))
    @settings(max_examples=60, deadline=None)
    @given(norm=st.floats(0.0, 2_000.0), t=st.integers(0, 50), noise_len=st.integers(1, 24))
    def test_output_length_is_the_meaning_length(self, kind, norm, t, noise_len):
        # The ABSTRACT arithmetic, and gamma-star's gain, stand for the meaning.
        spec = ChannelSpec(psi_kind=kind, noise_len=noise_len, const_meaning="0110",
                           gamma_true=50.0, gain_lo=1, gain_hi=7, decay_len=100.0, seed=0)
        noise = noise_from_digest(meaning_digest(""), t, spec)
        tag = context_tag("", norm, None)
        meaning = apply_psi(noise, tag, norm, t, spec, False)
        assert psi_output_length(spec, norm, t) == len(meaning)

    def test_gate_requires_ordered_gains(self):
        with pytest.raises(ValueError):
            ChannelSpec(psi_kind=PsiKind.GATED, gamma_true=1.0, gain_lo=5, gain_hi=5)


class TestCollisionRate:
    def test_constant_channel_always_collides(self):
        spec = ChannelSpec(psi_kind=PsiKind.CONSTANT, const_meaning="1", seed=0)
        assert estimate_collision_rate(spec, ctx(), trials=500, seed=1) == 1.0

    def test_identity_collision_near_two_to_minus_len(self):
        spec = ChannelSpec(psi_kind=PsiKind.IDENTITY, temperature=1.0,
                           noise_len=8, seed=0)
        trials = 200_000
        rate = estimate_collision_rate(spec, ctx(), trials=trials, seed=2)
        p = 2.0**-8
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(rate - p) <= 5.0 * sigma

    def test_injectivity_witness_bound(self):
        for noise_len in (8, 12, 16, 20):
            spec = ChannelSpec(psi_kind=PsiKind.IDENTITY, temperature=1.0,
                               noise_len=noise_len, seed=noise_len)
            trials = 50_000
            rate = estimate_collision_rate(spec, ctx(), trials=trials, seed=3)
            p = 2.0**-noise_len
            assert rate <= 2.0 * p + 5.0 * math.sqrt(2.0 * p / trials)

    def test_mask_valve_collision_arithmetic(self):
        # eps = 0.5 on an injective base: both-masked pairs collide, so the
        # rate is eps^2 + (1-eps)^2 * 2^-len.
        spec = ChannelSpec(psi_kind=PsiKind.IDENTITY, temperature=1.0,
                           noise_len=10, seed=0, mask_rate=constant_mask(0.5))
        trials = 200_000
        rate = estimate_collision_rate(spec, ctx(), trials=trials, seed=4)
        expected = 0.25 + 0.25 * 2.0**-10
        sigma = math.sqrt(expected * (1 - expected) / trials)
        assert abs(rate - expected) <= 5.0 * sigma


class TestEntropy:
    def test_zero_temperature_zero_entropy(self):
        spec = ChannelSpec(temperature=0.0, noise_len=4, seed=0)
        assert entropy_estimate(spec, samples=1_000, seed=1) == 0.0

    def test_one_bit(self):
        spec = ChannelSpec(temperature=1.0, noise_len=1, seed=0)
        h = entropy_estimate(spec, samples=200_000, seed=2)
        assert h == pytest.approx(1.0, abs=5e-3)

    def test_three_bits(self):
        spec = ChannelSpec(temperature=1.0, noise_len=3, seed=0)
        h = entropy_estimate(spec, samples=200_000, seed=3)
        assert h == pytest.approx(3.0, abs=5e-3)
