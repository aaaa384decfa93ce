"""Swarm coupling: equality cases, schedules, drift matrix, divergence."""

import math
import warnings

import numpy as np
import pytest

from loopsim.engine import PreconditionError
from loopsim.swarm import (
    GainMode,
    Schedule,
    SwarmSpec,
    activity_matrix,
    build_drift_matrix,
    check_collective_gain,
    predict_and_verify_divergence,
    run_swarm,
    spectral_radius,
)


def uniform_spec(k=2, beta=0.5, lam=1.0, schedule=Schedule.SYNCHRONOUS,
                 base=4.0, delta=1.0, gamma=100.0, mode=GainMode.STATIC):
    b = np.full((k, k), beta)
    np.fill_diagonal(b, 0.0)
    return SwarmSpec(k=k, beta=b, lam=np.full(k, lam), schedule=schedule,
                     base_gain=base, delta=delta, gamma=gamma, gain_mode=mode)


class TestSwarmStep:
    """One tick of run_swarm against its closed form: an active agent gains
    delta * (1 + mean bonus) * k * base, an inactive one nothing."""

    def test_pair_equality_case(self):
        spec = uniform_spec()
        traj = run_swarm(spec, horizon=1, seed=0)
        delta, beta, k, base = 1.0, 0.5, 2, 4.0
        assert list(traj.delta[:, 0]) == [delta * (1 + beta) * k * base] * 2
        assert list(traj.norm[:, 1]) == [12.0, 12.0]

    def test_inactive_agent_gains_nothing(self):
        spec = uniform_spec(schedule=Schedule.BERNOULLI_ASYNC, lam=0.5)
        traj = run_swarm(spec, horizon=200, seed=1)
        assert traj.active.any() and not traj.active.all()
        assert np.array_equal(traj.delta, np.where(traj.active, 12.0, 0.0))

    def test_zero_bonus_three_agents_is_additive(self):
        spec = uniform_spec(k=3, beta=0.0)
        traj = run_swarm(spec, horizon=10, seed=2)
        assert np.all(traj.delta == 3 * 4.0 * 1.0)  # k * base * delta

    def test_step_arithmetic_matches_measure_backed_run(self):
        # run_swarm takes its STATIC gain from the declared-bonus measure;
        # every tick must equal the closed form exactly.
        for spec, k, mean_bonus in (
                (uniform_spec(k=3, beta=0.5), 3, 0.5),
                (uniform_spec(schedule=Schedule.BERNOULLI_ASYNC, lam=0.6), 2, 0.5)):
            traj = run_swarm(spec, horizon=50, seed=11)
            gain = spec.delta * (1 + mean_bonus) * k * spec.base_gain
            assert np.array_equal(traj.delta, np.where(traj.active, gain, 0.0))
            assert np.array_equal(traj.norm[:, -1], traj.active.sum(axis=1) * gain)

    def test_relay_broadcasts_the_previous_increments(self):
        # RELAY: each agent's base is the other's last increment, so a
        # synchronous pair gains delta * base * (1 + beta) ** (t + 1).
        spec = uniform_spec(mode=GainMode.RELAY)
        traj = run_swarm(spec, horizon=20, seed=0)
        for t in range(20):
            assert list(traj.delta[:, t]) == [4.0 * 1.5 ** (t + 1)] * 2


class TestRunSwarm:
    def test_static_norms_are_the_per_tick_sums(self):
        # Increments that round: the prefix sum must match the tick loop bit
        # for bit, not just to a tolerance.
        spec = uniform_spec(k=3, beta=0.37, lam=0.6, base=0.1, delta=0.3,
                            schedule=Schedule.BERNOULLI_ASYNC)
        traj = run_swarm(spec, horizon=2000, seed=3)
        norms = np.zeros(spec.k)
        for t in range(2000):
            norms = norms + traj.delta[:, t]
            assert norms.tobytes() == traj.norm[:, t + 1].tobytes()

    def test_horizon_one(self):
        traj = run_swarm(uniform_spec(), horizon=1, seed=0)
        assert traj.delta.shape == (2, 1)
        assert traj.active.shape == (2, 1)

    def test_equality_case_holds_every_step(self):
        spec = uniform_spec()
        traj = run_swarm(spec, horizon=500, seed=1)
        assert np.all(traj.delta == 12.0)
        assert np.all(traj.collective == 24.0)

    def test_kfold_equality_for_three_agents(self):
        spec = uniform_spec(k=3, beta=0.5)
        traj = run_swarm(spec, horizon=100, seed=2)
        assert np.all(traj.delta == 1.5 * 3 * 4.0)

    def test_collective_is_exact_sum(self):
        spec = uniform_spec(schedule=Schedule.BERNOULLI_ASYNC, lam=0.7)
        traj = run_swarm(spec, horizon=2_000, seed=3)
        assert np.array_equal(traj.collective, traj.delta.sum(axis=0))

    def test_async_thinning(self):
        spec = uniform_spec(schedule=Schedule.BERNOULLI_ASYNC, lam=0.5)
        traj = run_swarm(spec, horizon=10_000, seed=4)
        sigma = math.sqrt(10_000 * 0.25)
        for agent in range(2):
            active = traj.active[agent].sum()
            assert abs(active - 5_000) <= 5.0 * sigma

    def test_async_means_halve(self):
        spec = uniform_spec(schedule=Schedule.BERNOULLI_ASYNC, lam=0.5)
        traj = run_swarm(spec, horizon=10_000, seed=5)
        per_agent = traj.delta.mean(axis=1)
        se = traj.delta[0].std(ddof=1) / 100.0
        for mean in per_agent:
            assert abs(mean - 6.0) <= 5.0 * se

    def test_identical_seeds_identical_runs(self):
        spec = uniform_spec(schedule=Schedule.BERNOULLI_ASYNC, lam=0.3)
        a = run_swarm(spec, horizon=300, seed=6)
        b = run_swarm(spec, horizon=300, seed=6)
        assert np.array_equal(a.delta, b.delta)
        assert np.array_equal(a.active, b.active)


class TestCollectiveGain:
    def test_sync_equality_bounds(self):
        spec = uniform_spec()
        report = check_collective_gain(run_swarm(spec, 1_000, seed=1))
        assert report.passed
        for check in report.per_agent:
            assert check.bound == 12.0
            assert check.mean_delta == 12.0
        assert report.collective_bound == 24.0
        assert report.collective_mean == 24.0

    def test_async_bounds_scale_by_rate(self):
        spec = uniform_spec(schedule=Schedule.BERNOULLI_ASYNC, lam=0.5)
        report = check_collective_gain(run_swarm(spec, 10_000, seed=2))
        assert report.passed
        assert report.per_agent[0].bound == 6.0
        assert report.collective_bound == 12.0

    def test_nonuniform_uses_average_bonus(self):
        beta = np.array([[0.0, 0.2], [0.6, 0.0]])
        spec = SwarmSpec(k=2, beta=beta, lam=np.ones(2), base_gain=4.0,
                         delta=1.0, gamma=100.0)
        report = check_collective_gain(run_swarm(spec, 100, seed=3))
        assert not report.uniform
        assert report.bonus_factor == pytest.approx(0.4)
        assert report.per_agent[0].bound == pytest.approx(1.4 * 2 * 4.0)
        assert report.passed  # averaged bonus makes the bound sharp


class TestDriftMatrix:
    def test_symmetric_pair(self):
        drift = build_drift_matrix(uniform_spec())
        assert np.array_equal(drift, np.array([[0.0, 1.5], [1.5, 0.0]]))

    def test_rate_scales_rows(self):
        beta = np.array([[0.0, 0.5], [0.5, 0.0]])
        spec = SwarmSpec(k=2, beta=beta, lam=np.array([0.5, 1.0]),
                         base_gain=1.0, gamma=1.0)
        drift = build_drift_matrix(spec)
        assert drift[0, 1] == 0.75
        assert drift[1, 0] == 1.5

    def test_zero_bonus_unit_rates(self):
        drift = build_drift_matrix(uniform_spec(k=3, beta=0.0))
        off = drift[~np.eye(3, dtype=bool)]
        assert np.all(off == 1.0)


class TestSpectralRadius:
    def test_alternating_pair(self):
        assert spectral_radius(np.array([[0.0, 1.5], [1.5, 0.0]])) == pytest.approx(
            1.5, abs=1e-9)

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_uniform_three_agents(self):
        m = np.full((3, 3), 0.6)
        np.fill_diagonal(m, 0.0)
        assert spectral_radius(m) == pytest.approx(1.2, abs=1e-9)

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            m = rng.random((4, 4))
            np.fill_diagonal(m, 0.0)
            expected = max(abs(np.linalg.eigvals(m)))
            assert spectral_radius(m) == pytest.approx(expected, abs=1e-8)

    def test_row_sum_bracket_on_scenario_matrices(self):
        for spec in (uniform_spec(), uniform_spec(k=3, beta=0.6),
                     uniform_spec(k=4, beta=0.2, lam=0.8)):
            drift = build_drift_matrix(spec)
            rho = spectral_radius(drift)
            row_sums = drift.sum(axis=1)
            assert row_sums.max() / spec.k <= rho <= row_sums.max() + 1e-12

    @pytest.mark.parametrize("spec,expected", [
        (uniform_spec(), 1.5),
        (uniform_spec(k=3, beta=0.6), 3.2),
        (uniform_spec(k=3, beta=0.5), 3.0),
        (uniform_spec(beta=0.0, lam=1.0), 1.0),    # critical: no growth claim
    ], ids=["pair", "k3_beta0.6", "k3_beta0.5", "critical"])
    def test_equal_row_sums_give_the_row_sum_exactly(self, spec, expected):
        drift = build_drift_matrix(spec)
        assert spectral_radius(drift) == drift.sum(axis=1)[0] == expected


class TestDivergencePrediction:
    def test_supercritical_relay_diverges(self):
        spec = uniform_spec(gamma=1_000.0, mode=GainMode.RELAY)
        report = predict_and_verify_divergence(spec, horizon=60, seed=1)
        assert report.rho == pytest.approx(1.5, abs=1e-9)
        assert report.flagged_divergent
        assert report.growth_ok
        assert report.slope >= math.log(1.5) - 0.05

    def test_subcritical_reports_without_claims(self):
        spec = uniform_spec(beta=0.0, lam=0.1, gamma=1_000.0,
                            schedule=Schedule.BERNOULLI_ASYNC,
                            mode=GainMode.RELAY)
        report = predict_and_verify_divergence(spec, horizon=60, seed=2)
        assert report.rho == pytest.approx(0.1, abs=1e-9)
        assert report.growth_ok is None

    def test_rho_is_seed_independent(self):
        spec = uniform_spec(gamma=1_000.0, mode=GainMode.RELAY)
        a = predict_and_verify_divergence(spec, horizon=30, seed=3)
        b = predict_and_verify_divergence(spec, horizon=30, seed=4)
        assert a.rho == b.rho


class TestOverflow:
    def test_relay_overflow_stops_flagged(self):
        spec = uniform_spec(k=3, beta=0.5, base=1.0, gamma=10.0, mode=GainMode.RELAY)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            traj = run_swarm(spec, horizon=10_000, seed=0)
            report = predict_and_verify_divergence(spec, horizon=10_000, seed=0)
        assert traj.overflow_tick == 645 and traj.steps == 646
        assert traj.norm.shape == (3, 647) and traj.active.shape == (3, 646)
        assert np.isfinite(traj.norm[:, :-1]).all()
        assert not np.isfinite(traj.norm[:, -1]).all()
        assert report.rho == 3.0 and report.growth_ok
        assert report.slope == pytest.approx(math.log(3.0), abs=1e-9)
        with pytest.raises(PreconditionError, match="tick 645"):
            check_collective_gain(traj)

    def test_static_overflow_stops_flagged(self):
        spec = uniform_spec(base=1e306)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            traj = run_swarm(spec, horizon=100, seed=0)
        # 3e306 per tick: the norm passes the largest float on tick 59.
        assert traj.overflow_tick == traj.steps - 1 == 59
        assert np.isfinite(traj.norm[:, :-1]).all()


def solo_crossing(spec, horizon, level):
    """The step an isolated agent, adding delta * base_gain each tick, first
    passes ``level``."""
    solo = np.cumsum(np.full(horizon, spec.delta * spec.base_gain))
    return int(np.nonzero(solo > level)[0][0]) + 1


class TestThresholdRescaling:
    def test_swarm_crosses_no_later_than_solo_sync(self):
        spec = uniform_spec(gamma=120.0)
        traj = run_swarm(spec, horizon=200, seed=1)
        t_swarm = traj.first_crossing(120.0)
        t_solo = solo_crossing(spec, 200, 120.0)
        assert t_swarm is not None
        assert t_swarm <= t_solo

    def test_swarm_crosses_no_later_than_solo_async(self):
        # Generous margin (gamma 1200) keeps the one-sided comparison safe
        # across all seeds.
        for seed in range(100):
            spec = uniform_spec(schedule=Schedule.BERNOULLI_ASYNC, lam=0.5,
                                gamma=1_200.0)
            traj = run_swarm(spec, horizon=500, seed=seed)
            t_swarm = traj.first_crossing(1_200.0)
            t_solo = solo_crossing(spec, 500, 1_200.0)
            assert t_swarm is not None and t_swarm <= t_solo


class TestExports:
    def test_agent_and_collective_csv(self):
        import io
        spec = uniform_spec(schedule=Schedule.BERNOULLI_ASYNC, lam=0.5)
        traj = run_swarm(spec, horizon=5, seed=7)
        agent_csv = io.StringIO()
        traj.write_agent_csv(0, agent_csv)
        lines = agent_csv.getvalue().splitlines()
        assert lines[0] == "t,norm,omega,delta,active"
        assert len(lines) == 6
        collective_csv = io.StringIO()
        traj.write_collective_csv(collective_csv)
        lines = collective_csv.getvalue().splitlines()
        assert lines[0] == "t,sum_delta,active_count"
        assert len(lines) == 6


class TestValidation:
    def test_negative_bonus_rejected(self):
        with pytest.raises(ValueError):
            uniform_spec(beta=-0.1)

    def test_nonzero_diagonal_rejected(self):
        beta = np.full((2, 2), 0.5)
        with pytest.raises(ValueError):
            SwarmSpec(k=2, beta=beta, lam=np.ones(2), gamma=1.0)

    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError):
            uniform_spec(lam=0.0)
        with pytest.raises(ValueError):
            uniform_spec(lam=1.5)

    @pytest.mark.parametrize("field,reason", [
        ("base", "base_gain"), ("delta", "delta"), ("gamma", "gamma"), ("lam", "activity"),
        ("beta", "beta entries")])
    def test_a_nan_parameter_is_refused(self, field, reason):
        with pytest.raises(ValueError, match=reason):
            uniform_spec(**{field: math.nan})

    def test_single_agent_rejected(self):
        with pytest.raises(ValueError):
            SwarmSpec(k=1, beta=np.zeros((1, 1)), lam=np.ones(1), gamma=1.0)
