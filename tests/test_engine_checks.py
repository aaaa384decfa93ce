"""Trajectory verifiers and the integer-state prototype."""

import math
import random

import numpy as np
import pytest

from loopsim.channel import ChannelSpec, PsiKind, constant_mask, power_law_mask
from loopsim.engine import (
    EVENT_CROSSED_GAMMA,
    Mode,
    PreconditionError,
    PrototypeMode,
    RunConfig,
    burst_stats,
    delta_monotone,
    divergence_time_bound,
    epsilon_star,
    estimate_gamma_star,
    run,
    run_prototype,
    verify_bounded,
    verify_drift,
    windowed,
)
from loopsim.measures import length_measure


def gated_run(norm0, gamma, gain_lo, gain_hi, delta, horizon, seed=0, eps=0.0,
              update=None, gamma_true=None):
    channel = ChannelSpec(
        psi_kind=PsiKind.GATED,
        gamma_true=gamma if gamma_true is None else gamma_true,
        gain_lo=gain_lo, gain_hi=gain_hi, noise_len=8, seed=seed,
        mask_rate=constant_mask(eps))
    cfg = RunConfig(channel=channel, update=update or delta_monotone(delta),
                    measure=length_measure(), gamma=gamma, horizon=horizon,
                    mode=Mode.ABSTRACT, initial_norm=norm0)
    return run(cfg)


class TestVerifyDrift:
    def test_exact_iterated_inequality(self):
        # From norm 11 with delta 0.5 and threshold 10: at least +5 per step,
        # checked per step and cumulatively with zero tolerance.
        traj = gated_run(11.0, 10.0, 0, 10, 0.5, horizon=200)
        report = verify_drift(traj)
        assert report.t0 == 0
        assert report.per_step_ok and report.cumulative_ok
        assert report.min_margin == 0.0
        k = np.arange(201)
        assert np.all(traj.norms >= 11.0 + 5.0 * k)

    def test_no_crossing(self):
        traj = gated_run(0.0, 10.0, 0, 10, 1.0, horizon=50)
        with pytest.raises(PreconditionError, match="never exceeded"):
            verify_drift(traj)

    def test_unmasked_bound_reduces_to_delta_gamma(self):
        traj = gated_run(11.0, 10.0, 0, 10, 1.0, horizon=100)
        report = verify_drift(traj)
        assert report.mean_bound == 10.0
        assert report.mean_drift == 10.0

    def test_masked_mean_drift(self):
        # eps = 0.5, delta = 1, threshold 10 crossed: mean drift at least 5
        # within five standard errors over 10^4 steps.
        traj = gated_run(11.0, 10.0, 0, 12, 1.0, horizon=10_000, eps=0.5, seed=3)
        report = verify_drift(traj)
        assert report.per_step_ok  # unmasked steps still add >= delta*gamma
        assert report.mean_ok
        assert report.mean_drift >= 5.0 - 5.0 * 12.0 * 0.5 / 100.0

    def test_crossing_event_flagged_once(self):
        traj = gated_run(2.0, 10.0, 2, 10, 1.0, horizon=50)
        flags = (traj.events & EVENT_CROSSED_GAMMA) != 0
        assert flags.sum() == 1


class TestVerifyBounded:
    def test_zero_start_stays_zero(self):
        traj = gated_run(0.0, 10.0, 0, 10, 1.0, horizon=1_000)
        report = verify_bounded(traj)
        assert report.passed and report.max_norm == 0.0

    def test_sub_threshold_start_never_escapes(self):
        traj = gated_run(5.0, 10.0, 0, 10, 1.0, horizon=10_000, eps=0.2, seed=9)
        report = verify_bounded(traj)
        assert report.passed
        assert report.lyapunov_max == 0.0

    def test_precondition_violated(self):
        traj = gated_run(11.0, 10.0, 0, 10, 1.0, horizon=10)
        # The same text on every numpy: not np.float64(11.0) on numpy 2.
        with pytest.raises(PreconditionError,
                           match=r"^initial norm 11\.0 exceeds the threshold 10\.0$"):
            verify_bounded(traj)


class TestGammaStar:
    CHANNEL = ChannelSpec(psi_kind=PsiKind.GATED, gamma_true=50.0, gain_lo=0,
                          gain_hi=5, noise_len=8, seed=0)

    def test_estimate_brackets_truth(self):
        est = estimate_gamma_star(self.CHANNEL, 1.0, 100.0, iterations=20,
                                  mc_samples=32, seed=1)
        assert abs(est.value - 50.0) <= 2.5
        assert est.resolution == pytest.approx(99.0 / 2**20)

    def test_never_zero_gain_collapses_to_lo(self):
        channel = ChannelSpec(psi_kind=PsiKind.GATED, gamma_true=50.0,
                              gain_lo=2, gain_hi=5, noise_len=8, seed=0)
        est = estimate_gamma_star(channel, 1.0, 100.0, iterations=16, seed=2)
        assert est.value <= 1.0 + est.resolution

    def test_sample_count_does_not_move_the_estimate(self):
        a = estimate_gamma_star(self.CHANNEL, 1.0, 100.0, iterations=20,
                                mc_samples=16, seed=3)
        b = estimate_gamma_star(self.CHANNEL, 1.0, 100.0, iterations=20,
                                mc_samples=32, seed=4)
        assert abs(a.value - b.value) <= a.resolution

    def test_invalid_bracket(self):
        with pytest.raises(ValueError, match="0 < lo < hi"):
            estimate_gamma_star(self.CHANNEL, 10.0, 10.0)
        with pytest.raises(ValueError, match="0 < lo < hi"):
            estimate_gamma_star(self.CHANNEL, -1.0, 10.0)


class TestDivergenceTimeBound:
    def test_plain_case(self):
        assert divergence_time_bound(5, 12.0, 100.0, 10.0) == 14

    def test_masking_halves_drift(self):
        assert divergence_time_bound(5, 12.0, 100.0, 5.0) == 23

    def test_one_step_suffices(self):
        assert divergence_time_bound(5, 12.0, 12.0 + 10.0, 10.0) == 6

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            divergence_time_bound(5, 12.0, 100.0, 0.0)
        with pytest.raises(ValueError):
            divergence_time_bound(5, 12.0, 12.0, 10.0)

    @pytest.mark.parametrize("target,drift,reason", [
        (math.inf, 10.0, "target must be finite"), (math.nan, 10.0, "target must be finite"),
        (1e10, 1e-300, "inf steps is not finite")], ids=["inf", "nan", "tiny_drift"])
    def test_refuses_a_bound_that_is_not_finite(self, target, drift, reason):
        # Each ended in math.ceil's OverflowError or its NaN ValueError.
        with pytest.raises(ValueError, match=reason):
            divergence_time_bound(5, 12.0, target, drift)

    def test_observed_crossing_within_bound(self):
        traj = gated_run(2.0, 10.0, 2, 10, 1.0, horizon=40)
        t_star = traj.first_crossing(10.0)
        assert t_star == 5
        norm_at_star = float(traj.norms[t_star])
        assert norm_at_star == 12.0
        bound = divergence_time_bound(t_star, norm_at_star, 100.0, 10.0)
        assert bound == 14
        assert traj.first_crossing(100.0 - 1e-12) <= bound


class TestBurstStats:
    def make_windowed(self, horizon=100_000):
        channel = ChannelSpec(psi_kind=PsiKind.GATED, gamma_true=10.0,
                              gain_lo=0, gain_hi=10, noise_len=8, seed=0)
        cfg = RunConfig(channel=channel,
                        update=windowed(window=100, delta=1.0, drop_to=11.0),
                        measure=length_measure(), gamma=10.0, horizon=horizon,
                        mode=Mode.ABSTRACT, initial_norm=11.0)
        return run(cfg)

    def test_burst_census(self):
        report = burst_stats(self.make_windowed())
        assert report.bursts >= 100
        assert report.max_norm == 100.0
        assert report.max_norm_ok
        assert report.gap_bound == math.ceil((100 - 11) / 10.0)
        assert report.gaps_ok

    def test_unreachable_cap_means_no_bursts(self):
        channel = ChannelSpec(psi_kind=PsiKind.GATED, gamma_true=10.0,
                              gain_lo=0, gain_hi=10, noise_len=8, seed=0)
        cfg = RunConfig(channel=channel,
                        update=windowed(window=10**9, delta=1.0),
                        measure=length_measure(), gamma=10.0, horizon=1_000,
                        mode=Mode.ABSTRACT, initial_norm=11.0)
        report = burst_stats(run(cfg))
        assert report.bursts == 0

    def test_rule_mismatch(self):
        traj = gated_run(11.0, 10.0, 0, 10, 1.0, horizon=10)
        with pytest.raises(PreconditionError, match="window cap"):
            burst_stats(traj)

    def test_norm_never_exceeds_window(self):
        traj = self.make_windowed(horizon=5_000)
        assert traj.norms.max() <= 100.0


class TestEpsilonStar:
    def test_value(self):
        assert epsilon_star(0.5, 4.0, 10.0) == pytest.approx(0.9)

    def test_boundary(self):
        assert epsilon_star(1.0, 20.0, 10.0) == 0.0

    def test_clamp_warns(self):
        with pytest.warns(UserWarning):
            assert epsilon_star(1.0, 30.0, 10.0) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            epsilon_star(0.0, 4.0, 10.0)
        with pytest.raises(ValueError):
            epsilon_star(0.5, 4.0, 0.0)


class TestPowerLawMaskDrift:
    def test_windowed_means_and_crossing(self):
        # Decaying mask rate 0.1 + 0.4/t: every 1000-step window keeps a mean
        # drift of at least delta*(1 - 0.5)*gamma within 5 sigma, and the run
        # still crosses any finite level.
        channel = ChannelSpec(psi_kind=PsiKind.GATED, gamma_true=10.0,
                              gain_lo=0, gain_hi=12, noise_len=8, seed=11,
                              mask_rate=power_law_mask(0.1, 0.4, 1.0))
        cfg = RunConfig(channel=channel, update=delta_monotone(1.0),
                        measure=length_measure(), gamma=10.0, horizon=4_000,
                        mode=Mode.ABSTRACT, initial_norm=11.0)
        traj = run(cfg)
        floor = 1.0 * (1.0 - 0.1 - 0.4) * 10.0
        sigma_step = 12.0 * 0.5  # generous per-step deviation bound
        for start in range(0, 4_000, 1_000):
            window = traj.delta[start:start + 1_000]
            assert window.mean() >= floor - 5.0 * sigma_step / math.sqrt(len(window))
        assert traj.first_crossing(20_000.0) is not None


class TestPrototype:
    def test_overwrite_history_stays_binary(self):
        for gamma in (1, 10, 100):
            history = run_prototype(PrototypeMode.OVERWRITE, steps=500,
                                    gamma=gamma, seed=1)
            assert set(history) <= {0, 1}

    def test_cumulative_is_nondecreasing_and_crosses(self):
        history = run_prototype(PrototypeMode.CUMULATIVE, steps=500,
                                gamma=10, seed=1)
        assert all(b >= a for a, b in zip(history, history[1:]))
        assert history[-1] > 10

    def test_single_step_history(self):
        assert len(run_prototype(PrototypeMode.OVERWRITE, steps=1)) == 1

    def test_modes_share_the_bit_stream(self):
        # With an unreachable threshold the overwrite history is exactly the
        # seeded bit stream both modes consume.
        seed = 9
        rng = random.Random(seed)
        bits = [rng.randint(0, 1) for _ in range(100)]
        overwrite = run_prototype(PrototypeMode.OVERWRITE, steps=100, gamma=10**9,
                                  seed=seed)
        assert overwrite == bits
        cumulative = run_prototype(PrototypeMode.CUMULATIVE, steps=100,
                                   gamma=10**9, seed=seed)
        assert cumulative == list(np.cumsum(bits))

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            run_prototype(PrototypeMode.CUMULATIVE, steps=0)
