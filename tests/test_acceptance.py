"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `[acceptance] criterion N: PASS/FAIL` line (visible with
pytest -s or in the captured-output section). Tolerances are pinned here,
never recalibrated: exact inequalities get zero tolerance, Monte-Carlo means
get five standard errors, estimators get their declared resolutions.
"""

import random
import time

import numpy as np

from loopsim.channel import ChannelSpec, PsiKind, constant_mask
from loopsim.cli import builtin_scenarios, run_scenario
from loopsim.cli.runner import run_audit
from loopsim.cost import CostModel, CostVariant, cumulative_compute
from loopsim.engine import (
    Mode,
    PrototypeMode,
    RunConfig,
    UpdateKind,
    UpdateRuleSpec,
    burst_stats,
    delta_monotone,
    detect_fixed_point,
    divergence_time_bound,
    epsilon_star,
    estimate_gamma_star,
    run,
    run_prototype,
    verify_bounded,
    verify_drift,
    windowed,
)
from loopsim.meanings import Meaning
from loopsim.measures import (
    audit_measure,
    compression_gain,
    compression_gain_measure,
    fisher_measure,
    length_measure,
)
from loopsim.swarm import (
    GainMode,
    Schedule,
    SwarmSpec,
    predict_and_verify_divergence,
    run_swarm,
    spectral_radius,
)


def report(criterion: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion:>2}: {status}  {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def gated_config(norm0, gamma, gamma_true, gain_lo, gain_hi, delta, horizon,
                 seed=0, eps=0.0, update=None):
    channel = ChannelSpec(
        psi_kind=PsiKind.GATED, gamma_true=gamma_true, gain_lo=gain_lo,
        gain_hi=gain_hi, noise_len=8, seed=seed, mask_rate=constant_mask(eps))
    return RunConfig(channel=channel, update=update or delta_monotone(delta),
                     measure=length_measure(), gamma=gamma, horizon=horizon,
                     mode=Mode.ABSTRACT, initial_norm=norm0)


def test_criterion_01_drift_exactness():
    # delta = 0.5, gamma = 10, start 11: norm(t0+k) >= norm(t0) + 5k with
    # zero tolerance for all k <= 1e4, in under a second.
    start = time.perf_counter()
    cfg = gated_config(11.0, 10.0, 10.0, 0, 10, 0.5, horizon=10_000)
    traj = run(cfg)
    drift = verify_drift(traj)
    k = np.arange(10_001)
    exact = bool(np.all(traj.norms >= 11.0 + 5.0 * k))
    elapsed = time.perf_counter() - start
    ok = exact and drift.per_step_ok and drift.cumulative_ok and elapsed < 1.0
    report(1, ok, f"min margin {drift.min_margin}, elapsed {elapsed:.2f}s")


def test_criterion_02_boundedness():
    # Start 5, threshold 10: no excursion above 10 over 1e5 steps x 100 seeds.
    violations = 0
    worst = 0.0
    for seed in range(100):
        cfg = gated_config(5.0, 10.0, 10.0, 0, 12, 1.0, horizon=100_000,
                           seed=seed)
        bounded = verify_bounded(run(cfg))
        worst = max(worst, bounded.max_norm)
        if not bounded.passed:
            violations += 1
    report(2, violations == 0, f"violations {violations}, max norm {worst}")


def test_criterion_03_tightness():
    channel = ChannelSpec(psi_kind=PsiKind.GATED, gamma_true=50.0, gain_lo=0,
                          gain_hi=5, noise_len=8, seed=0)
    estimates = [
        estimate_gamma_star(channel, 1.0, 100.0, iterations=20,
                            mc_samples=32, seed=seed).value
        for seed in range(10)
    ]
    ok = all(47.5 <= e <= 52.5 for e in estimates)
    report(3, ok, f"estimates within [{min(estimates):.4f}, {max(estimates):.4f}]")


def test_criterion_04_fixed_point_dichotomy():
    deterministic_ok = 0
    for seed in range(100):
        cfg = RunConfig(
            channel=ChannelSpec(psi_kind=PsiKind.IDENTITY, temperature=0.0,
                                noise_len=8, seed=seed),
            update=UpdateRuleSpec(UpdateKind.OVERWRITE),
            mode=Mode.CONCRETE, gamma=100.0, horizon=1_000)
        found = detect_fixed_point(run(cfg))
        if found is not None and found <= 2:
            deterministic_ok += 1

    stochastic_ok = 0
    for seed in range(100):
        cfg = RunConfig(
            channel=ChannelSpec(psi_kind=PsiKind.IDENTITY, temperature=1.0,
                                noise_len=8, seed=seed),
            update=UpdateRuleSpec(UpdateKind.OVERWRITE),
            mode=Mode.CONCRETE, gamma=100.0, horizon=10_000)
        if detect_fixed_point(run(cfg)) is None:
            stochastic_ok += 1

    ok = deterministic_ok == 100 and stochastic_ok == 100
    report(4, ok, f"deterministic fixed {deterministic_ok}/100, "
                  f"stochastic free {stochastic_ok}/100")


def test_criterion_05_masked_drift():
    details = []
    ok = True
    for eps in (0.1, 0.5):
        cfg = gated_config(11.0, 10.0, 10.0, 0, 12, 1.0, horizon=10_000,
                           seed=17, eps=eps)
        drift = verify_drift(run(cfg))
        ok = ok and drift.mean_ok and drift.per_step_ok
        details.append(f"eps={eps}: mean {drift.mean_drift:.3f} "
                       f">= {drift.mean_bound:.1f} - 5se")
    report(5, ok, "; ".join(details))


def test_criterion_06_collapse_threshold():
    # epsilon* = 0.9 for delta=0.5, gamma=4, sup gain 10; masking at 0.95
    # keeps every trajectory at or below gamma.
    star = epsilon_star(0.5, 4.0, 10.0)
    violations = 0
    for seed in range(100):
        cfg = gated_config(2.0, 4.0, 4.0, 0, 10, 0.5, horizon=100_000,
                           seed=seed, eps=0.95)
        if not verify_bounded(run(cfg)).passed:
            violations += 1
    ok = star == 0.9 and violations == 0
    report(6, ok, f"epsilon*={star}, violations {violations}/100")


def test_criterion_07_window_bursts():
    cfg = gated_config(
        11.0, 10.0, 10.0, 0, 10, 1.0, horizon=100_000, seed=5,
        update=windowed(window=100, delta=1.0, drop_to=11.0))
    stats = burst_stats(run(cfg))
    gap_ok = stats.gap_bound == 9 and all(g <= stats.gap_bound for g in stats.gaps)
    ok = stats.bursts >= 100 and stats.max_norm == 100.0 and gap_ok
    report(7, ok, f"bursts {stats.bursts}, max {stats.max_norm}, "
                  f"gaps <= {stats.gap_bound}")


def test_criterion_08_finite_time_bound():
    bound = divergence_time_bound(5, 12.0, 100.0, 10.0)
    violations = 0
    for seed in range(100):
        cfg = gated_config(2.0, 10.0, 10.0, 2, 10, 1.0, horizon=40, seed=seed)
        traj = run(cfg)
        t_star = traj.first_crossing(10.0)
        assert t_star == 5 and traj.norms[t_star] == 12.0
        observed = int(np.nonzero(traj.norms >= 100.0)[0][0])
        if observed > bound:
            violations += 1
    ok = bound == 14 and violations == 0
    report(8, ok, f"bound {bound}, violations {violations}/100")


def test_criterion_09_swarm_gains():
    beta = np.array([[0.0, 0.5], [0.5, 0.0]])
    sync = SwarmSpec(k=2, beta=beta, lam=np.ones(2), base_gain=4.0, delta=1.0,
                     gamma=10_000.0)
    sync_traj = run_swarm(sync, horizon=10_000, seed=1)
    sync_ok = bool(np.all(sync_traj.delta == 12.0)
                   and np.all(sync_traj.collective == 24.0))

    async_spec = SwarmSpec(k=2, beta=beta, lam=np.full(2, 0.5),
                           schedule=Schedule.BERNOULLI_ASYNC, base_gain=4.0,
                           delta=1.0, gamma=10_000.0)
    traj = run_swarm(async_spec, horizon=10_000, seed=2)
    per_agent = traj.delta.mean(axis=1)
    se = traj.delta[0].std(ddof=1) / np.sqrt(traj.steps)
    collective_mean = traj.collective.mean()
    se_collective = traj.collective.std(ddof=1) / np.sqrt(traj.steps)
    async_ok = bool(
        np.all(np.abs(per_agent - 6.0) <= 5 * se)
        and abs(collective_mean - 12.0) <= 5 * se_collective)
    report(9, sync_ok and async_ok,
           f"sync exact 12/24; async means {per_agent.round(3)} ~ 6, "
           f"{collective_mean:.3f} ~ 12")


def test_criterion_10_spectral_radius():
    pair = abs(spectral_radius(np.array([[0.0, 1.5], [1.5, 0.0]])) - 1.5)
    uniform = np.full((3, 3), 0.6)
    np.fill_diagonal(uniform, 0.0)
    triple = abs(spectral_radius(uniform) - 1.2)

    beta = np.array([[0.0, 0.5], [0.5, 0.0]])
    flagged = 0
    for seed in range(100):
        spec = SwarmSpec(k=2, beta=beta, lam=np.ones(2), base_gain=1.0,
                         delta=1.0, gamma=1_000.0, gain_mode=GainMode.RELAY)
        verdict = predict_and_verify_divergence(spec, horizon=60, seed=seed)
        if verdict.flagged_divergent and verdict.growth_ok:
            flagged += 1
    ok = pair <= 1e-9 and triple <= 1e-9 and flagged == 100
    report(10, ok, f"|rho err| {max(pair, triple):.2e}, divergent {flagged}/100")


def test_criterion_11_cost_slopes():
    cfg = gated_config(11.0, 10.0, 10.0, 0, 10, 1.0, horizon=10_000, seed=3)
    traj = run(cfg)
    full = cumulative_compute(traj, CostModel(), fit_window=(100, 10_000))
    low = cumulative_compute(
        traj, CostModel(variant=CostVariant.LOW_RANK, rank=4),
        fit_window=(100, 10_000))
    ok = abs(full.slope - 2.0) <= 0.1 and abs(low.slope - 1.0) <= 0.1
    report(11, ok, f"full slope {full.slope:.3f}, low-rank {low.slope:.3f}")


def test_criterion_12_measure_audits():
    length_report = audit_measure(length_measure(), samples=10_000, seed=21)
    cg_report = audit_measure(compression_gain_measure(), samples=10_000, seed=22)
    fisher_report = audit_measure(
        fisher_measure(0.5), samples=10_000, seed=23,
        probes=[(Meaning("1"), Meaning("0"))])

    unit_floor_detected = compression_gain(Meaning("0")) == 0.0
    cg_doc = run_audit("compression_gain", samples=1_000, seed=24)
    unit_floor_reported = any(
        v["name"] == "compression_gain_unit_floor"
        and v["status"].startswith("COUNTEREXAMPLE")
        for v in cg_doc["verdicts"])
    fisher_detected = any(
        c.inputs == ("1", "0") for c in fisher_report.violations("O2"))

    ok = (length_report.clean
          and cg_report.o1_violations == 0
          and unit_floor_detected and unit_floor_reported
          and fisher_detected and fisher_report.o2_violations > 0)
    report(12, ok,
           f"length clean {length_report.clean}, cg O1 "
           f"{cg_report.o1_violations}, counterexamples reported")


def test_criterion_13_prototype_oracle_equivalence():
    # Independent line-by-line transcription of the minimal loop, sharing the
    # seeded bit stream with the engine implementation.
    def transcribed(T=200, Gamma=10, seed=0):
        rng = random.Random(seed)
        psi = lambda n, c: n      # noqa: E731 (mirrors the original listing)
        U = lambda c, m: m        # noqa: E731
        c, history = 0, []
        for _ in range(T):
            n = rng.randint(0, 1)
            m = psi(n, c)
            c = U(c, m) if c <= Gamma else U(c, m) + 1
            history.append(c)
        return history

    ok = True
    for seed in (0, 7, 123):
        engine_history = run_prototype(PrototypeMode.OVERWRITE, steps=200,
                                       gamma=10, seed=seed)
        ok = ok and engine_history == transcribed(seed=seed)
    report(13, ok, "exact sequence equality, T=200, seeds 0/7/123")


def test_criterion_14_reproducibility(tmp_path):
    names = ("masked_drift", "swarm_async")
    scenarios = [s for s in builtin_scenarios() if s.name in names]
    identical = True
    for scenario in scenarios:
        run_scenario(scenario, tmp_path / "first")
        run_scenario(scenario, tmp_path / "second")
        first_dir = tmp_path / "first" / scenario.name
        for csv_path in sorted(first_dir.glob("*.csv")):
            twin = tmp_path / "second" / scenario.name / csv_path.name
            identical = identical and csv_path.read_bytes() == twin.read_bytes()
    report(14, identical, f"byte-identical CSVs for {', '.join(names)}")
