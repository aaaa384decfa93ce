"""Cost model: closed forms, monotonicity, growth slopes."""

import math

import numpy as np
import pytest

from loopsim.channel import ChannelSpec, PsiKind
from loopsim.cost import (
    CostModel,
    CostVariant,
    cumulative_compute,
    effective_rank,
    flops_array,
    flops_at,
)
from loopsim.engine import Mode, RunConfig, delta_monotone, run
from loopsim.measures import length_measure


FULL = CostModel(alpha_attn=2.0, alpha_ffn=3.0)
LOW_RANK = CostModel(alpha_attn=2.0, alpha_ffn=3.0, variant=CostVariant.LOW_RANK,
                     rank=4, alpha_attn_r=2.0)


def linear_norm_run(horizon=10_000):
    channel = ChannelSpec(psi_kind=PsiKind.GATED, gamma_true=10.0, gain_lo=0,
                          gain_hi=10, noise_len=8, seed=0)
    cfg = RunConfig(channel=channel, update=delta_monotone(1.0),
                    measure=length_measure(), gamma=10.0, horizon=horizon,
                    mode=Mode.ABSTRACT, initial_norm=11.0)
    return run(cfg)


class TestFlopsAt:
    def test_zero_context_costs_nothing(self):
        assert flops_at(0.0, FULL) == 0.0

    def test_full_closed_form(self):
        assert flops_at(10.0, FULL) == 230.0

    def test_low_rank_closed_form(self):
        assert flops_at(10.0, LOW_RANK) == 110.0

    def test_strictly_increasing(self):
        grid = np.linspace(0.0, 500.0, 101)
        for model in (FULL, LOW_RANK,
                      CostModel(variant=CostVariant.LOG_RANK, log_coeff=2.0)):
            values = [flops_at(n, model) for n in grid]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_full_dominates_low_rank_past_crossover(self):
        crossover = LOW_RANK.rank * LOW_RANK.alpha_attn_r / FULL.alpha_attn
        for n in np.linspace(crossover + 1e-9, 1_000.0, 50):
            assert flops_at(n, FULL) >= flops_at(n, LOW_RANK)

    def test_rejects_nonpositive_coefficients(self):
        with pytest.raises(ValueError):
            CostModel(alpha_attn=0.0)
        with pytest.raises(ValueError):
            CostModel(variant=CostVariant.LOW_RANK, rank=0)


class TestCumulativeCompute:
    def test_constant_norm_run_is_flat(self):
        norms = np.full(2_000, 50.0)
        report = cumulative_compute(norms, FULL, fit_window=(100, 1_900))
        assert abs(report.slope) < 0.5
        assert report.cumulative[-1] == pytest.approx(2_000 * flops_at(50.0, FULL))

    def test_linear_divergence_is_quadratic_under_full(self):
        traj = linear_norm_run()
        report = cumulative_compute(traj, FULL, fit_window=(100, 10_000))
        assert report.slope >= 1.5
        assert report.slope == pytest.approx(2.0, abs=0.1)

    def test_same_run_is_linear_under_low_rank(self):
        traj = linear_norm_run()
        report = cumulative_compute(traj, LOW_RANK, fit_window=(100, 10_000))
        assert 0.5 <= report.slope < 1.5
        assert report.slope == pytest.approx(1.0, abs=0.1)

    def test_budget_capped_run_goes_flat(self):
        from loopsim.engine import BudgetGate
        channel = ChannelSpec(psi_kind=PsiKind.GATED, gamma_true=10.0, gain_lo=0,
                              gain_hi=10, noise_len=8, seed=0)
        cfg = RunConfig(channel=channel, update=delta_monotone(1.0),
                        measure=length_measure(), gamma=10.0, horizon=5_000,
                        mode=Mode.ABSTRACT, initial_norm=11.0,
                        budget=BudgetGate(max_norm=200.0))
        report = cumulative_compute(run(cfg), FULL, fit_window=(1_000, 5_000))
        assert abs(report.slope) < 0.5

    def test_total_exceeds_any_budget_below_final_step_cost(self):
        traj = linear_norm_run(horizon=2_000)
        final_step_cost = flops_at(float(traj.norms[-2]), FULL)
        assert cumulative_compute(traj, FULL).cumulative[-1] >= final_step_cost


    @pytest.mark.parametrize("model", [
        FULL, LOW_RANK, CostModel(alpha_attn=0.3, alpha_ffn=1e-3),
        CostModel(variant=CostVariant.LOG_RANK, log_coeff=0.7)],
        ids=["full", "low_rank", "full_small", "log_rank"])
    def test_vectorised_flops_equal_flops_at_per_point(self, model):
        rng = np.random.default_rng(3)
        series = np.concatenate((
            [0.0, -0.0, -1.0, -1e300, 1.0, 1e-320, 1e154, 1e300],
            rng.normal(0.0, 50.0, 500), rng.uniform(0.0, 1e6, 500) / 3.0))
        with np.errstate(over="ignore"):
            want = np.array([flops_at(max(n, 0.0), model) for n in series])
        got = cumulative_compute(series, model).instantaneous
        assert got.tobytes() == want.tobytes()
        sizes = np.where(series < 0.0, 0.0, series)  # keeps -0.0
        with np.errstate(over="ignore"):
            want = np.array([flops_at(n, model) for n in sizes])
        assert flops_array(sizes, model).tobytes() == want.tobytes()


class TestLogRank:
    def test_near_linear_growth(self):
        traj = linear_norm_run()
        model = CostModel(variant=CostVariant.LOG_RANK, log_coeff=0.05)
        report = cumulative_compute(traj, model, fit_window=(100, 10_000))
        assert 0.5 <= report.slope < 1.5
        assert report.slope == pytest.approx(1.0, abs=0.15)

    @pytest.mark.parametrize("log_coeff", [0.05, 0.7, 1.0, 3.0, 1e300])
    def test_a_finite_rank_keeps_its_value(self, log_coeff):
        model = CostModel(variant=CostVariant.LOG_RANK, log_coeff=log_coeff)
        for norm in (0.0, 0.5, 1.0, 1.5, math.e, 11.0, 1e6, 1e300):
            want = max(1, math.ceil(log_coeff * math.log(max(norm, 1.0))))
            assert effective_rank(norm, model) == want

    @pytest.mark.parametrize("log_coeff", [math.inf, 1e308])
    def test_a_rank_past_the_largest_float_costs_inf(self, log_coeff):
        # log 1 = 0 keeps the rank at 1 there, even under an infinite log_coeff.
        model = CostModel(variant=CostVariant.LOG_RANK, log_coeff=log_coeff)
        assert flops_at(1.0, model) == 2.0
        assert effective_rank(11.0, model) == flops_at(11.0, model) == math.inf
