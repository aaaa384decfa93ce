"""Gain measures: frozen values, exact identities, error paths."""

import math

import numpy as np
import pytest

from loopsim.meanings import Meaning, concat
from loopsim.measures import (
    MeasureKind,
    MeasureSpec,
    SupportMismatchError,
    UnknownTagError,
    compression_gain,
    declared_gain,
    declared_measure,
    fisher_gain,
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
        assert spec.evaluate_concat(Meaning("", tag="1"), Meaning("", tag="2")) == 12.0
