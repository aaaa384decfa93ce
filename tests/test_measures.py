"""Gain measures: frozen values, exact identities, error paths."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsim.meanings import Meaning, concat
from loopsim.measures import (
    MeasureKind,
    MeasureSpec,
    SupportMismatchError,
    UnknownTagError,
    compression_gain,
    compression_gain_measure,
    declared_gain,
    declared_measure,
    fisher_gain,
    fisher_measure,
    length_measure,
    power_measure,
    symmetrised_kl,
    unit_floor_gain,
)


def direct_kl(p, q):
    """Oracle: both KL terms summed outcome by outcome, no shortcuts."""
    forward = sum(p[x] * math.log(p[x] / q[x]) for x in p if p[x] > 0)
    backward = sum(q[x] * math.log(q[x] / p[x]) for x in q if q[x] > 0)
    return 0.5 * (forward + backward)


class TestCompressionGain:
    def test_empty(self):
        assert compression_gain(Meaning("")) == 0.0

    def test_single_zero_scores_nothing(self):
        # raw 1 bit, coded 1 bit: the unit lower bound fails on short strings.
        assert compression_gain(Meaning("0")) == 0.0

    def test_run_of_32_zeros(self):
        assert compression_gain(Meaning("0" * 32)) == 8.0

    def test_clamped_at_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            bits = "".join("1" if b else "0" for b in rng.integers(0, 2, size=24))
            assert compression_gain(Meaning(bits)) >= 0.0

    def test_unit_floor_wrapper(self):
        assert unit_floor_gain(Meaning("")) == 0.0
        assert unit_floor_gain(Meaning("0")) == 1.0
        assert unit_floor_gain(Meaning("0" * 32)) == 8.0


class TestLengthAndPower:
    def test_length(self):
        assert length_measure().evaluate(Meaning("")) == 0.0
        assert length_measure().evaluate(Meaning("101")) == 3.0

    def test_length_additive_under_concat(self):
        assert length_measure().evaluate(concat(Meaning("101"), Meaning("01"))) == 5.0

    def test_power(self):
        assert power_measure(2.0).evaluate(Meaning("")) == 0.0
        assert power_measure(2.0).evaluate(Meaning("01")) == 4.0
        assert power_measure(1.5).evaluate(Meaning("010")) == pytest.approx(3.0**1.5)

    def test_power_rejects_small_exponent(self):
        with pytest.raises(ValueError):
            MeasureSpec(MeasureKind.POWER_LAW, exponent=1.0)
        with pytest.raises(ValueError):
            power_measure(0.5)

    @pytest.mark.parametrize("exponent", [None, math.nan, 0.5],
                             ids=["missing", "nan", "half"])
    def test_power_exponent_checked_at_construction(self, exponent):
        with pytest.raises(ValueError, match="power-law exponent must exceed 1"):
            MeasureSpec(MeasureKind.POWER_LAW, exponent=exponent)

    @pytest.mark.parametrize("theta0", [None, math.nan], ids=["missing", "nan"])
    def test_fisher_theta0_checked_at_construction(self, theta0):
        with pytest.raises(ValueError, match=r"theta0 must lie in \(0, 1\)"):
            MeasureSpec(MeasureKind.FISHER, theta0=theta0)

    @pytest.mark.parametrize("kind, field", [(MeasureKind.DECLARED_BONUS, "bases")],
                             ids=["bases"])
    def test_missing_combo_or_bases_refused_at_construction(self, kind, field):
        with pytest.raises(ValueError, match=f"a {kind.value} measure needs {field}"):
            MeasureSpec(kind)


class TestFisher:
    def test_empty(self):
        assert fisher_gain(Meaning(""), 0.5) == 0.0

    def test_single_one_at_half(self):
        assert fisher_gain(Meaning("1"), 0.5) == 4.0

    def test_score_cancellation(self):
        # "10" cancels to zero while the parts sum to 8: the built-in
        # counterexample to super-additivity.
        assert fisher_gain(Meaning("10"), 0.5) == 0.0
        assert fisher_gain(Meaning("1"), 0.5) + fisher_gain(Meaning("0"), 0.5) == 8.0

    def test_rejects_bad_theta(self):
        for theta in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                fisher_gain(Meaning("1"), theta)


class TestSymmetrisedKl:
    def test_identical_distributions(self):
        p = {0: 0.5, 1: 0.5}
        assert symmetrised_kl(p, p) == 0.0

    def test_bernoulli_pair_matches_direct_sum(self):
        p = {1: 0.5, 0: 0.5}
        q = {1: 0.25, 0: 0.75}
        value = symmetrised_kl(p, q)
        assert value == pytest.approx(direct_kl(p, q), abs=1e-15)
        assert value == pytest.approx(0.1373, abs=5e-5)

    def test_symmetry_on_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            w1 = rng.random(4) + 1e-3
            w2 = rng.random(4) + 1e-3
            p = {i: float(v) for i, v in enumerate(w1 / w1.sum())}
            q = {i: float(v) for i, v in enumerate(w2 / w2.sum())}
            assert abs(symmetrised_kl(p, q) - symmetrised_kl(q, p)) <= 1e-12
            assert symmetrised_kl(p, q) >= 0.0

    def test_zero_only_for_equal(self):
        p = {0: 0.5, 1: 0.5}
        q = {0: 0.5 + 1e-6, 1: 0.5 - 1e-6}
        assert symmetrised_kl(p, q) > 0.0

    def test_support_mismatch_is_an_error(self):
        with pytest.raises(SupportMismatchError):
            symmetrised_kl({0: 1.0}, {0: 0.5, 1: 0.5})


class TestDeclaredBonus:
    BASES = {"1": 4.0, "2": 4.0}
    BONUS = {("1", "2"): 0.5, ("2", "1"): 0.5}

    def test_single_meaning_scores_base(self):
        assert declared_gain(Meaning("", tag="1"), self.BASES, self.BONUS) == 4.0

    def test_pair_equality(self):
        pair = [Meaning("", tag="1"), Meaning("", tag="2")]
        assert declared_gain(pair, self.BASES, self.BONUS) == 12.0

    def test_zero_bonus_is_plain_additivity(self):
        pair = [Meaning("", tag="1"), Meaning("", tag="2")]
        assert declared_gain(pair, self.BASES, {}) == 8.0

    def test_kfold_uniform_equality(self):
        bases = {str(i): 4.0 for i in range(4)}
        bonus = {(str(i), str(j)): 0.5 for i in range(4) for j in range(4) if i != j}
        meanings = [Meaning("", tag=str(i)) for i in range(4)]
        assert declared_gain(meanings, bases, bonus) == 1.5 * 4 * 4.0

    def test_pair_equality_for_every_table_entry(self):
        bases = {str(i): 2.0 for i in range(3)}
        bonus = {}
        values = {(0, 1): 0.1, (1, 2): 0.7, (0, 2): 0.4}
        for (i, j), b in values.items():
            bonus[(str(i), str(j))] = b
            bonus[(str(j), str(i))] = b
        for (i, j), b in values.items():
            pair = [Meaning("", tag=str(i)), Meaning("", tag=str(j))]
            assert declared_gain(pair, bases, bonus) == pytest.approx((1 + b) * 4.0)

    def test_unknown_tag(self):
        with pytest.raises(UnknownTagError):
            declared_gain(Meaning("01"), self.BASES, self.BONUS)

    def test_negative_bonus_rejected(self):
        with pytest.raises(ValueError):
            declared_gain(Meaning("", tag="1"), self.BASES, {("1", "2"): -0.1})

    def test_measure_spec_concat_path(self):
        spec = declared_measure(self.BASES, self.BONUS)
        assert spec.score_pair(Meaning("", tag="1"), Meaning("", tag="2"))[2] == 12.0


def reference_pair(spec, m1, m2):
    """The four gains `score_pair` returns, each from `evaluate` of its own
    meaning. Tags do not survive `concat`, so a declared-bonus join is the
    tag-aware `declared_gain` of the list of parts."""
    if spec.kind is MeasureKind.DECLARED_BONUS:
        return (spec.evaluate(m1), spec.evaluate(m2),
                declared_gain([m1, m2], spec.bases, spec.bonus),
                declared_gain([m1, Meaning("")], spec.bases, spec.bonus))
    return (spec.evaluate(m1), spec.evaluate(m2), spec.evaluate(concat(m1, m2)),
            spec.evaluate(concat(m1, Meaning(""))))


BINARY = st.text(alphabet="01", max_size=80)
TAGS = ("a", "b", "c")
GAINS = st.floats(0.0, 1e6, allow_nan=False)


@st.composite
def specs_and_pairs(draw):
    """One spec of every kind with meanings it can score. FISHER's theta0 is
    drawn from all of (0, 1): at 0.5 every score is an exact integer, so a
    reordered sum would pass. POWER_LAW's exponent is any above 1, the
    length kinds and COMPRESSION_GAIN take any text, and DECLARED_BONUS
    takes tagged meanings, empty ones too."""
    kind = draw(st.sampled_from(MeasureKind))
    text = st.text(max_size=80)
    if kind is MeasureKind.FISHER:
        spec = fisher_measure(draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
        text = BINARY
    elif kind is MeasureKind.POWER_LAW:
        spec = power_measure(draw(st.floats(1.0, exclude_min=True, allow_nan=False)))
    elif kind is MeasureKind.DECLARED_BONUS:
        bases = {tag: draw(GAINS) for tag in TAGS}
        bonus = {(a, b): draw(GAINS) for a in TAGS for b in TAGS if a != b}
        spec = declared_measure(bases, bonus)
        tagged = st.builds(Meaning, st.text(alphabet="01", max_size=8), st.sampled_from(TAGS))
        return spec, draw(tagged), draw(tagged)
    else:
        spec = compression_gain_measure() if kind is MeasureKind.COMPRESSION_GAIN \
            else length_measure()
    return spec, Meaning(draw(text)), Meaning(draw(text))


@settings(max_examples=500, deadline=None)
@given(case=specs_and_pairs())
def test_score_pair_equals_the_reference_bit_for_bit(case):
    spec, m1, m2 = case
    got = spec.score_pair(m1, m2)
    assert [v.hex() for v in got] == [v.hex() for v in reference_pair(spec, m1, m2)]


def test_score_pair_refuses_a_non_binary_fisher_symbol():
    with pytest.raises(ValueError, match="fisher gain needs binary symbols, got 'x'"):
        fisher_measure(0.3).score_pair(Meaning("01"), Meaning("1x"))
