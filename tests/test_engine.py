"""Engine core: step semantics, run determinism, fixed points, rules."""

import dataclasses
import hashlib
import io
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loopsim
from loopsim.channel import (
    ChannelSpec,
    PsiKind,
    constant_mask,
    meaning_digest,
    power_law_mask,
)
from loopsim.cost import CostModel, CostVariant
from loopsim.engine import (
    EVENT_BURST_HIT_W,
    EVENT_CROSSED_GAMMA,
    EVENT_FIXED_POINT,
    EVENT_OVERFLOW,
    BudgetGate,
    ContextState,
    Mode,
    PreconditionError,
    RunConfig,
    SublinearKind,
    UpdateKind,
    UpdateRuleSpec,
    delta_monotone,
    detect_fixed_point,
    divergence_time_bound,
    epsilon_star,
    replay,
    run,
    step,
    windowed,
)
from loopsim.engine.core import MAX_SYMBOLS, _bursts
from loopsim.measures import (
    compression_gain_measure,
    fisher_measure,
    length_measure,
    power_measure,
)


def gated_channel(gamma_true, gain_lo, gain_hi, seed=0, eps=0.0, temperature=1.0):
    return ChannelSpec(
        psi_kind=PsiKind.GATED, gamma_true=gamma_true, gain_lo=gain_lo,
        gain_hi=gain_hi, temperature=temperature, noise_len=8, seed=seed,
        mask_rate=constant_mask(eps))


def abstract_gated(norm0, gamma, gamma_true, gain_lo, gain_hi, delta, horizon,
                   seed=0, eps=0.0, **kwargs):
    return RunConfig(
        channel=gated_channel(gamma_true, gain_lo, gain_hi, seed=seed, eps=eps),
        update=delta_monotone(delta),
        measure=length_measure(),
        gamma=gamma, horizon=horizon, mode=Mode.ABSTRACT,
        initial_norm=norm0, **kwargs)


COLUMNS = ("norms", "omega", "delta", "epsilon_t", "flops", "events")


@st.composite
def run_configs(draw):
    """Small ABSTRACT and CONCRETE configs over every update kind.

    CONCRETE draws also take CONSTANT and DECAYING ψ and symbol-dependent
    measures; MIRROR keeps the length measure, its meanings being as long as
    the context.
    """
    mode = draw(st.sampled_from(Mode))
    kinds = [PsiKind.GATED, PsiKind.MIRROR, PsiKind.IDENTITY, PsiKind.TAGGED_INJECTIVE]
    if mode is Mode.CONCRETE:
        kinds += [PsiKind.CONSTANT, PsiKind.DECAYING]
    psi = draw(st.sampled_from(kinds))
    channel = ChannelSpec(
        psi_kind=psi, temperature=draw(st.sampled_from([0.0, 1.0])),
        mask_rate=draw(st.sampled_from([constant_mask(0.0), constant_mask(0.3),
                                        power_law_mask(0.05, 0.5, 0.7)])),
        noise_len=draw(st.integers(1, 24)), seed=draw(st.integers(0, 2**16)),
        gamma_true=draw(st.floats(0.0, 20.0)), gain_lo=draw(st.integers(0, 3)),
        gain_hi=draw(st.integers(4, 9)),
        const_meaning=draw(st.text("01", min_size=1, max_size=6)),
        decay_len=draw(st.sampled_from([5.0, 50.0])),
        decay_power=draw(st.sampled_from([0.5, 1.0])))
    measure = length_measure()
    if mode is Mode.CONCRETE and psi is not PsiKind.MIRROR:
        measure = draw(st.sampled_from([
            length_measure(), compression_gain_measure(), fisher_measure(0.5)]))
    kind = draw(st.sampled_from(UpdateKind))
    if kind is UpdateKind.WINDOWED:
        # A fractional drop_to: the CONCRETE cut keeps int(drop_to) symbols
        # while the norm keeps the remainder.
        rule = windowed(window=draw(st.integers(5, 60)),
                        delta=draw(st.sampled_from([0.5, 1.0, 1.5])),
                        drop_to=draw(st.integers(0, 8)) / 2)
    elif kind is UpdateKind.DELTA_MONOTONE:
        rule = delta_monotone(draw(st.sampled_from([0.25, 0.5, 1.0])))
    else:
        rule = UpdateRuleSpec(kind, h_kind=draw(st.sampled_from(SublinearKind)))
    budget = draw(st.sampled_from([None, BudgetGate(max_norm=150.0),
                                   BudgetGate(max_flops=2e5)]))
    if mode is Mode.CONCRETE and psi is PsiKind.MIRROR and budget is None:
        budget = BudgetGate(max_norm=150.0)  # MIRROR doubles the symbols
    n0 = draw(st.integers(0, 12))
    return RunConfig(
        channel=channel, update=rule, measure=measure, gamma=draw(st.floats(1.0, 30.0)),
        horizon=draw(st.integers(1, 200)), mode=mode, initial_norm=float(n0),
        initial_symbols=draw(st.text("01", min_size=n0, max_size=n0))
        if mode is Mode.CONCRETE else "",
        budget=budget,
        cost_model=draw(st.sampled_from(
            [CostModel(), CostModel(variant=CostVariant.LOW_RANK, rank=4)])))


def state_digests(cfg):
    """The joined `meaning_digest` of each state of a `step` loop, and the
    final state."""
    state, digests = cfg.initial_state(), []
    for t in range(cfg.horizon):
        state, _ = step(state, t, cfg)
        digests.append(meaning_digest(state.symbols))
    return b"".join(digests), state


@st.composite
def fixed_point_configs(draw, psi):
    """A `run_configs` draw recast as a CONCRETE run over ``psi`` at
    temperature 0, unmasked."""
    cfg = draw(run_configs())
    channel = dataclasses.replace(
        cfg.channel, psi_kind=psi, temperature=0.0, mask_rate=constant_mask(0.0),
        const_meaning=draw(st.text("01", min_size=1, max_size=6)),
        decay_len=draw(st.sampled_from([5.0, 50.0, 500.0])),
        decay_power=draw(st.sampled_from([0.5, 1.0, 2.0])))
    n0 = int(cfg.initial_norm)
    budget, measure = cfg.budget, cfg.measure
    if psi is PsiKind.MIRROR:
        measure = length_measure()
        if budget is None:
            budget = BudgetGate(max_norm=150.0)  # MIRROR doubles the symbols
    return dataclasses.replace(
        cfg, channel=channel, mode=Mode.CONCRETE, budget=budget, measure=measure,
        initial_symbols=draw(st.text("01", min_size=n0, max_size=n0)))


@st.composite
def long_abstract_configs(draw, variant):
    """A `run_configs` draw recast as an ABSTRACT run of 3,000 to 12,000 steps.

    Such runs cross the segment path's chunk cap. ``variant`` adds one
    feature the short configs lack: CONSTANT or DECAYING ψ, a POWER_LAW
    measure, masked WINDOWED bursts, an OVERWRITE GATED run that drops below
    ``gamma_true`` on every masked step and climbs back on the next, or a
    ``max_flops`` gate that trips at a drawn step.
    """
    cfg = draw(run_configs())
    cfg = dataclasses.replace(cfg, mode=Mode.ABSTRACT, initial_symbols="",
                              measure=length_measure(),
                              horizon=draw(st.integers(3_000, 12_000)))
    masks = st.sampled_from([constant_mask(0.3), power_law_mask(0.05, 0.5, 0.7)])
    if variant == "psi":
        channel = dataclasses.replace(
            cfg.channel, psi_kind=draw(st.sampled_from([PsiKind.CONSTANT, PsiKind.DECAYING])),
            const_meaning=draw(st.text("01", min_size=1, max_size=6)),
            decay_len=draw(st.floats(1.0, 1e4)))
        cfg = dataclasses.replace(cfg, channel=channel)
    elif variant == "measure":
        cfg = dataclasses.replace(cfg, measure=draw(st.sampled_from([
            power_measure(1.5), power_measure(2.0)])))
    elif variant == "windowed":
        cfg = dataclasses.replace(
            cfg, channel=dataclasses.replace(cfg.channel, mask_rate=draw(masks)),
            update=windowed(window=draw(st.integers(5, 60)),
                            delta=draw(st.sampled_from([0.5, 1.0, 1.5])),
                            drop_to=float(draw(st.integers(0, 4)))))
    elif variant == "oscillating":
        gain_lo = draw(st.integers(1, 3))
        channel = dataclasses.replace(
            cfg.channel, psi_kind=PsiKind.GATED, mask_rate=draw(masks),
            gain_lo=gain_lo, gamma_true=draw(st.floats(0.0, gain_lo - 0.5)))
        cfg = dataclasses.replace(cfg, channel=channel,
                                  update=UpdateRuleSpec(UpdateKind.OVERWRITE))
    elif variant == "max_flops":
        free = run(dataclasses.replace(cfg, budget=None))
        with np.errstate(over="ignore"):
            spent = np.cumsum(free.flops)[draw(st.integers(0, free.steps - 1))]
        cfg = dataclasses.replace(cfg, budget=BudgetGate(max_flops=float(spent)))
    return cfg


@st.composite
def long_concrete_configs(draw, kind):
    """A `run_configs` draw recast as a TAGGED_INJECTIVE CONCRETE run of 2,000
    to 5,000 steps under APPEND (the context grows by every meaning) or
    WINDOWED (it is cut to ``drop_to`` after each cap hit)."""
    cfg = draw(run_configs())
    if kind is UpdateKind.WINDOWED:
        rule = windowed(window=draw(st.integers(20, 400)),
                        delta=draw(st.sampled_from([0.5, 1.0, 1.5])),
                        drop_to=draw(st.integers(0, 24)) / 2)
    else:
        rule = UpdateRuleSpec(kind)
    n0 = int(cfg.initial_norm)
    return dataclasses.replace(
        cfg, mode=Mode.CONCRETE, update=rule, budget=None,
        channel=dataclasses.replace(cfg.channel, psi_kind=PsiKind.TAGGED_INJECTIVE),
        horizon=draw(st.integers(2_000, 5_000)),
        initial_symbols=draw(st.text("01", min_size=n0, max_size=n0)))


def assert_same_run(got, want):
    """Every column, the norms and the final symbols of two runs agree bit for
    bit; a failure names the first that differs."""
    for name in COLUMNS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.final_symbols == want.final_symbols, "final_symbols"


def assert_run_matches_step_loop(cfg):
    assert_same_run(run(cfg), replay(cfg))


class TestStep:
    def test_one_bit_self_copy(self):
        # Identity channel + overwrite on a 1-bit context: the new context is
        # exactly the noise bit of this step.
        from loopsim.channel import meaning_digest, noise_from_digest

        spec = ChannelSpec(psi_kind=PsiKind.IDENTITY, noise_len=1, seed=8)
        cfg = RunConfig(channel=spec, update=UpdateRuleSpec(UpdateKind.OVERWRITE),
                        mode=Mode.CONCRETE, horizon=4, gamma=1.0,
                        initial_norm=1.0, initial_symbols="0")
        state = cfg.initial_state()
        for t in range(4):
            noise = noise_from_digest(meaning_digest(state.symbols), t, spec)
            state, record = step(state, t, cfg)
            assert state.symbols == noise
            assert record.norm == 1.0

    def test_constant_channel_step_is_deterministic(self):
        spec = ChannelSpec(psi_kind=PsiKind.CONSTANT, const_meaning="111", seed=1)
        cfg = RunConfig(channel=spec, update=UpdateRuleSpec(UpdateKind.OVERWRITE),
                        mode=Mode.CONCRETE, horizon=2, gamma=1.0)
        s1, r1 = step(cfg.initial_state(), 0, cfg)
        s2, r2 = step(cfg.initial_state(), 0, cfg)
        assert s1 == s2 and r1 == r2
        assert s1.symbols == "111"

    def test_delta_monotone_equality_case(self):
        # delta = 1, gain = length, meaning of length 5: the norm grows by
        # exactly 5.
        cfg = abstract_gated(norm0=20.0, gamma=10.0, gamma_true=10.0,
                             gain_lo=0, gain_hi=5, delta=1.0, horizon=1)
        state, record = step(cfg.initial_state(), 0, cfg)
        assert state.norm == 25.0
        assert record.delta == 5.0

    @settings(max_examples=200, deadline=None)
    @given(run_configs())
    def test_run_matches_step_loop(self, cfg):
        assert_run_matches_step_loop(cfg)

    @pytest.mark.parametrize("variant", ["psi", "measure", "windowed",
                                         "oscillating", "max_flops"])
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_long_abstract_run_matches_step_loop(self, variant, data):
        # The segment path (and, for MIRROR and DECAYING, the per-step path)
        # over horizons past its 4,096-step chunk cap.
        assert_run_matches_step_loop(data.draw(long_abstract_configs(variant)))

    @pytest.mark.parametrize("kind", [UpdateKind.APPEND, UpdateKind.WINDOWED])
    @settings(max_examples=4, deadline=None)
    @given(data=st.data())
    def test_long_concrete_run_matches_step_loop(self, kind, data):
        # The rolling context hashes over long growing contexts and drops.
        assert_run_matches_step_loop(data.draw(long_concrete_configs(kind)))

    @pytest.mark.parametrize("column", ["norms", "events"])
    def test_one_edited_column_fails_the_comparison_naming_it(self, column):
        # One ulp in one norm, or one event bit, of a segment-path run.
        cfg = abstract_gated(11.0, 10.0, 10.0, 0, 10, 1.0, horizon=50, eps=0.3)
        got, want = run(cfg), replay(cfg)
        assert_same_run(got, want)
        edited = getattr(got, column).copy()
        if column == "norms":
            edited[20] = np.nextafter(edited[20], math.inf)
        else:
            edited[20] ^= EVENT_CROSSED_GAMMA
        with pytest.raises(AssertionError, match=rf"^{column}\n"):
            assert_same_run(dataclasses.replace(got, **{column: edited}), want)

    @pytest.mark.parametrize("noise_len", [1, 8, 9])
    def test_every_overwrite_noise_path_matches_step_loop(self, noise_len):
        # Both sides of the one-byte noise table (noise_len <= 8), and of the
        # context digest memo that goes with it, over contexts that repeat.
        assert_run_matches_step_loop(RunConfig(
            channel=ChannelSpec(psi_kind=PsiKind.IDENTITY, noise_len=noise_len,
                                seed=noise_len, mask_rate=constant_mask(0.2)),
            update=UpdateRuleSpec(UpdateKind.OVERWRITE), measure=compression_gain_measure(),
            mode=Mode.CONCRETE, horizon=3_000, initial_norm=3.0, initial_symbols="101"))


class TestRun:
    def test_horizon_one_gives_one_record(self):
        cfg = abstract_gated(0.0, 10.0, 10.0, 0, 5, 1.0, horizon=1)
        assert run(cfg).steps == 1

    def test_horizon_zero_disallowed(self):
        with pytest.raises(ValueError):
            abstract_gated(0.0, 10.0, 10.0, 0, 5, 1.0, horizon=0)

    def test_negative_initial_norm_disallowed(self):
        # step() refuses a negative context, so run() must not start from one.
        with pytest.raises(ValueError, match="initial_norm"):
            abstract_gated(-5.0, 10.0, 10.0, 0, 5, 1.0, horizon=10)

    @pytest.mark.parametrize("psi,norm", [
        (PsiKind.MIRROR, math.inf), (PsiKind.IDENTITY, math.inf), (PsiKind.MIRROR, math.nan),
        (PsiKind.IDENTITY, math.nan), (PsiKind.GATED, math.nan)],
        ids=["mirror_inf", "identity_inf", "mirror_nan", "identity_nan", "gated_nan"])
    def test_non_finite_initial_norm_disallowed(self, psi, norm):
        # MIRROR from inf used to end in int(inf)'s OverflowError; NaN passed `< 0.0`.
        channel = ChannelSpec(psi_kind=psi, noise_len=4, gamma_true=5.0, gain_hi=2)
        with pytest.raises(ValueError, match="initial_norm must be nonnegative and finite"):
            RunConfig(channel=channel, update=windowed(5), horizon=3, initial_norm=norm)

    @pytest.mark.parametrize("build,reason", [
        (lambda nan: abstract_gated(0.0, nan, 10.0, 0, 5, 1.0, 1), "gamma must be positive"),
        (lambda nan: abstract_gated(0.0, 10.0, nan, 0, 5, 1.0, 1), "gamma_true"),
        (lambda nan: delta_monotone(nan), "delta must be positive"),
        (lambda nan: ChannelSpec(temperature=nan), "temperature must be nonnegative"),
        (lambda nan: constant_mask(nan), "eps0"),
        (lambda nan: power_law_mask(0.1, nan, 1.0), "kappa"),
        (lambda nan: power_law_mask(0.1, 0.2, nan), "alpha_decay"),
        (lambda nan: CostModel(alpha_ffn=nan), "cost coefficients"),
        (lambda nan: CostModel(variant=CostVariant.LOG_RANK, log_coeff=nan), "log_coeff"),
        (lambda nan: BudgetGate(max_norm=nan), "max_norm"),
    ], ids=["gamma", "gamma_true", "delta", "temperature", "eps0", "kappa",
            "alpha_decay", "alpha_ffn", "log_coeff", "max_norm"])
    def test_a_nan_parameter_is_refused(self, build, reason):
        # Every comparison with NaN is false, so each check is written to fail on it.
        with pytest.raises(ValueError, match=reason):
            build(math.nan)

    @pytest.mark.parametrize("build,reason", [
        (lambda nan: epsilon_star(nan, 1.0, 1.0), "delta, gamma and omega_sup must be positive"),
        (lambda nan: divergence_time_bound(0, 11.0, 100.0, nan), "drift must be positive"),
        (lambda nan: ContextState(norm=nan), "norm must be nonnegative"),
    ], ids=["epsilon_star", "divergence_time_bound", "context_state"])
    def test_a_nan_argument_to_a_library_helper_is_refused(self, build, reason):
        with pytest.raises(ValueError, match=reason):
            build(math.nan)

    @pytest.mark.parametrize("kind", [UpdateKind.DELTA_MONOTONE, UpdateKind.WINDOWED])
    def test_an_infinite_delta_is_refused(self, kind):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            UpdateRuleSpec(kind, delta=math.inf, window=4)

    @pytest.mark.parametrize("mode,norm,symbols", [
        (Mode.ABSTRACT, 4.0, "0101"), (Mode.CONCRETE, 7.0, ""),
        (Mode.CONCRETE, 3.0, "01")], ids=["abstract_symbols", "concrete_none", "concrete_short"])
    def test_initial_symbols_must_match_the_mode_and_norm(self, mode, norm, symbols):
        channel = ChannelSpec(psi_kind=PsiKind.IDENTITY, noise_len=4)
        with pytest.raises(ValueError, match="initial_symbols"):
            RunConfig(channel=channel, update=windowed(5), mode=mode, horizon=3,
                      initial_norm=norm, initial_symbols=symbols)

    def test_deterministic_run_is_bit_identical(self):
        cfg = RunConfig(
            channel=ChannelSpec(psi_kind=PsiKind.IDENTITY, noise_len=8, seed=5,
                                mask_rate=constant_mask(0.2)),
            update=UpdateRuleSpec(UpdateKind.APPEND),
            mode=Mode.CONCRETE, gamma=100.0, horizon=200)
        a, b = run(cfg), run(cfg)
        for name in ("norm", "omega", "delta", "epsilon_t", "flops", "events"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert a.final_norm == b.final_norm

    def test_norms_are_stored_once(self):
        traj = run(abstract_gated(11.0, 10.0, 10.0, 0, 12, 1.0, horizon=50))
        assert len(traj.norms) == traj.steps + 1 == 51
        assert np.shares_memory(traj.norm, traj.norms)
        assert traj.final_norm == traj.norms[-1]

    def test_gated_divergence_is_monotone_after_crossing(self):
        cfg = abstract_gated(11.0, 10.0, 10.0, 0, 12, 1.0, horizon=500)
        traj = run(cfg)
        assert np.all(np.diff(traj.norms) > 0)

    def test_abstract_mode_rejects_symbol_measures(self):
        from loopsim.measures import compression_gain_measure
        with pytest.raises(ValueError):
            RunConfig(channel=gated_channel(10, 0, 5),
                      update=delta_monotone(1.0),
                      measure=compression_gain_measure(),
                      gamma=10.0, horizon=10, mode=Mode.ABSTRACT)


class TestFixedPoints:
    def stochastic_overwrite(self, seed, horizon=10_000):
        cfg = RunConfig(
            channel=ChannelSpec(psi_kind=PsiKind.IDENTITY, temperature=1.0,
                                noise_len=8, seed=seed),
            update=UpdateRuleSpec(UpdateKind.OVERWRITE),
            mode=Mode.CONCRETE, gamma=100.0, horizon=horizon)
        return run(cfg)

    def test_constant_channel_fixes_by_step_one(self):
        cfg = RunConfig(
            channel=ChannelSpec(psi_kind=PsiKind.CONSTANT, const_meaning="101",
                                temperature=0.0, seed=0),
            update=UpdateRuleSpec(UpdateKind.OVERWRITE),
            mode=Mode.CONCRETE, gamma=10.0, horizon=50)
        traj = run(cfg)
        assert detect_fixed_point(traj) <= 1
        assert traj.steps < 50  # early stop once the repeat is provable

    def test_zero_temperature_identity_fixes(self):
        cfg = RunConfig(
            channel=ChannelSpec(psi_kind=PsiKind.IDENTITY, temperature=0.0,
                                noise_len=4, seed=0),
            update=UpdateRuleSpec(UpdateKind.OVERWRITE),
            mode=Mode.CONCRETE, gamma=10.0, horizon=50)
        assert detect_fixed_point(run(cfg)) <= 2

    def test_stochastic_injective_overwrite_never_fixes(self):
        for seed in range(5):
            assert detect_fixed_point(self.stochastic_overwrite(seed)) is None

    def test_chance_last_step_repeat_is_not_a_fixed_point(self):
        # At seed 8 the last step emits the state before it by chance
        # (p = 1/256): a stochastic run never stops, so nothing is flagged.
        traj = self.stochastic_overwrite(8, horizon=300)
        before_last = self.stochastic_overwrite(8, horizon=299)
        assert traj.steps == 300 and traj.final_symbols == before_last.final_symbols
        assert detect_fixed_point(traj) is None

    def test_decaying_run_does_not_stop_on_a_repeat(self):
        # DECAYING's meaning length falls with t, so a repeated state is not
        # a fixed point: the run goes on to the empty context a step loop
        # reaches.
        cfg = RunConfig(
            channel=ChannelSpec(psi_kind=PsiKind.DECAYING, temperature=0.0,
                                decay_len=100.0, decay_power=1.0),
            update=UpdateRuleSpec(UpdateKind.OVERWRITE),
            mode=Mode.CONCRETE, gamma=100.0, horizon=200)
        traj = run(cfg)
        assert traj.steps == 200 and traj.final_norm == 0.0 and traj.final_symbols == ""
        assert detect_fixed_point(traj) is None
        assert_run_matches_step_loop(cfg)

    @pytest.mark.parametrize("psi", list(PsiKind))
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_a_stop_is_a_true_fixed_point(self, psi, data):
        # Stepping on from the state a run stopped on never changes it.
        cfg = data.draw(fixed_point_configs(psi))
        traj = run(cfg)
        if not traj.events[-1] & EVENT_FIXED_POINT:
            return
        state = ContextState(Mode.CONCRETE, traj.final_norm, traj.final_symbols)
        cum_flops = traj.total_flops
        for t in range(traj.steps, cfg.horizon):
            new, record = step(state, t, cfg, cum_flops=cum_flops)
            assert new == state, t
            cum_flops += record.flops

    def test_abstract_mode_unsupported(self):
        cfg = abstract_gated(0.0, 10.0, 10.0, 0, 5, 1.0, horizon=10)
        with pytest.raises(PreconditionError, match="CONCRETE"):
            detect_fixed_point(run(cfg))


class TestRules:
    def test_append_accumulates(self):
        cfg = RunConfig(
            channel=ChannelSpec(psi_kind=PsiKind.IDENTITY, noise_len=4, seed=2),
            update=UpdateRuleSpec(UpdateKind.APPEND),
            mode=Mode.CONCRETE, gamma=1000.0, horizon=25)
        traj = run(cfg)
        assert traj.final_norm == 100.0
        assert len(traj.final_symbols) == 100

    def test_concrete_norm_matches_symbols_for_integer_rules(self):
        cfg = RunConfig(
            channel=ChannelSpec(psi_kind=PsiKind.IDENTITY, noise_len=3, seed=4),
            update=UpdateRuleSpec(UpdateKind.APPEND),
            mode=Mode.CONCRETE, gamma=50.0, horizon=30)
        traj = run(cfg)
        assert traj.final_norm == len(traj.final_symbols)

    def test_fractional_carry_keeps_norm_ledger_exact(self):
        # delta = 0.5 on meanings of length 5: +2.5 per step; symbols track
        # floor(norm) while the ledger keeps the exact value.
        cfg = RunConfig(
            channel=gated_channel(0.0, 0, 5, seed=6),
            update=delta_monotone(0.5),
            mode=Mode.CONCRETE, gamma=0.5, initial_norm=1.0,
            initial_symbols="1", horizon=9)
        traj = run(cfg)
        assert traj.final_norm == pytest.approx(1.0 + 9 * 2.5)
        assert len(traj.final_symbols) == int(traj.final_norm)

    def test_sublinear_log1p(self):
        cfg = RunConfig(
            channel=gated_channel(0.0, 0, 5, seed=6),
            update=UpdateRuleSpec(UpdateKind.SUBLINEAR, h_kind=SublinearKind.LOG1P),
            gamma=1.0, initial_norm=2.0, horizon=3, mode=Mode.ABSTRACT)
        traj = run(cfg)
        assert traj.final_norm == pytest.approx(2.0 + 3 * math.log1p(5.0))

    def test_windowed_caps_and_drops(self):
        cfg = RunConfig(
            channel=gated_channel(10.0, 0, 10, seed=1),
            update=windowed(window=100, delta=1.0, drop_to=11.0),
            gamma=10.0, initial_norm=11.0, horizon=64, mode=Mode.ABSTRACT)
        traj = run(cfg)
        norms = traj.norms
        assert norms.max() == 100.0
        # After each hit the next state is back near the drop level.
        hits = np.nonzero(norms == 100.0)[0]
        assert len(hits) > 1
        assert norms[hits[0] + 1] == 21.0  # 11 + one 10-unit gain

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_burst_scan_matches_a_float_loop(self, data):
        # Increments drawn from a small pool that holds 0 and a step that
        # reaches the window from any start; x0 is drop_to or anywhere below W.
        window = data.draw(st.integers(1, 1000), label="window")
        drop_to = data.draw(st.integers(0, 2 * window - 1), label="drop_to") / 2
        x0 = data.draw(st.one_of(st.just(drop_to),
                                 st.floats(0.0, window, exclude_max=True)), label="x0")
        pool = data.draw(st.lists(st.floats(0.0, 2.0 * window), max_size=4), label="pool")
        pool += [0.0, float(window)]
        n = data.draw(st.integers(1, 4096), label="steps")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        inc = rng.choice(np.array(pool), n)
        xs, news, hits, x = [], [], [], x0
        for i in inc.tolist():
            raw = x + i
            xs.append(x)
            hits.append(raw >= window)
            news.append(float(window) if raw >= window else raw)
            x = drop_to if raw >= window else raw
        got = _bursts(x0, inc, windowed(window, drop_to=drop_to))
        want = (np.array(xs), np.array(news), np.array(hits))
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @pytest.mark.parametrize("drop_to", [10.0, 12.5])
    def test_a_drop_to_at_or_past_the_window_is_refused(self, drop_to):
        with pytest.raises(ValueError, match=r"drop_to must lie in \[0, window\)"):
            windowed(10, drop_to=drop_to)

    @pytest.mark.parametrize("drop_to,digests_sha", [
        (0.0, "7a304c07463a42ca4b03c157ebf493ff80706ca17dd4a79a0b802a62150a90e7"),
        (5.0, "555db18846208ac9373e2426a662ad7339ed73e46ac51443eb61ddea81f501b1"),
    ])
    def test_tagged_windowed_run_is_pinned(self, drop_to, digests_sha):
        # A drop re-tags the cut context: by the norm's repr when it is cut to
        # nothing, by its symbols otherwise. The SHA-256 of the `step` loop's
        # state digests is recorded, from the engine that hashed the whole
        # context for each tag; `run` must end on the same symbols.
        cfg = RunConfig(
            channel=ChannelSpec(psi_kind=PsiKind.TAGGED_INJECTIVE, noise_len=4,
                                seed=25, mask_rate=constant_mask(0.2)),
            update=windowed(60, delta=1.0, drop_to=drop_to), mode=Mode.CONCRETE,
            gamma=10.0, horizon=300)
        traj = run(cfg)
        assert (traj.events & EVENT_BURST_HIT_W).sum() > 0
        digests, state = state_digests(cfg)
        assert hashlib.sha256(digests).hexdigest() == digests_sha
        assert traj.final_symbols == state.symbols

    def test_valve_soundness_in_a_run(self):
        # Constant 0.3 mask over 1e5 steps: masked steps carry empty meanings
        # (omega 0) and their fraction stays within 5 sigma of the rate.
        cfg = abstract_gated(11.0, 10.0, 10.0, 0, 10, 1.0, horizon=100_000,
                             seed=13, eps=0.3)
        traj = run(cfg)
        masked = (traj.events & 1) != 0
        assert np.all(traj.omega[masked] == 0.0)
        sigma = math.sqrt(100_000 * 0.3 * 0.7)
        assert abs(masked.sum() - 30_000) <= 5.0 * sigma

    def test_budget_gate_freezes(self):
        cfg = abstract_gated(11.0, 10.0, 10.0, 0, 10, 1.0, horizon=50,
                             budget=BudgetGate(max_norm=60.0))
        traj = run(cfg)
        assert traj.final_norm == 61.0
        frozen = (traj.events & 16) != 0
        assert frozen.any()
        assert np.all(traj.delta[frozen] == 0.0)


class TestTrajectoryExport:
    def test_csv_golden(self):
        cfg = abstract_gated(11.0, 10.0, 10.0, 0, 10, 1.0, horizon=3,
                             seed=0)
        out = io.StringIO()
        run(cfg).write_csv(out)
        assert out.getvalue() == (
            "t,norm,omega,delta,epsilon_t,flops,events\n"
            "0,11,10,10,0,132,\n"
            "1,21,10,10,0,462,\n"
            "2,31,10,10,0,992,\n"
        )

    def test_norm_printed_with_12_significant_digits(self):
        cfg = RunConfig(
            channel=gated_channel(0.0, 0, 7, seed=3),
            update=delta_monotone(1.0 / 3.0),
            gamma=0.5, initial_norm=0.1, horizon=2, mode=Mode.ABSTRACT)
        out = io.StringIO()
        run(cfg).write_csv(out)
        row = out.getvalue().splitlines()[2]
        assert row.split(",")[1] == f"{0.1 + 7.0 / 3.0:.12g}"


class TestGrowthRegimes:
    def test_power_gain_outgrows_polynomials(self):
        # Meaning length mirrors the context, squared gain: by step 1000 the
        # (frozen) norm exceeds t^2 and t^3 evaluated at the horizon.
        cfg = RunConfig(
            channel=ChannelSpec(psi_kind=PsiKind.MIRROR, noise_len=8, seed=5),
            update=delta_monotone(1.0),
            measure=power_measure(2.0),
            gamma=1.0, initial_norm=2.0, horizon=1000, mode=Mode.ABSTRACT,
            budget=BudgetGate(max_norm=1e30))
        traj = run(cfg)
        assert math.isfinite(traj.final_norm)
        assert traj.final_norm > 1000.0**2
        assert traj.final_norm > 1000.0**3

    def runaway(self, measure):
        """MIRROR growth of 1.25x per step, or more under a POWER_LAW gain."""
        cfg = RunConfig(
            channel=ChannelSpec(psi_kind=PsiKind.MIRROR, noise_len=8, seed=0),
            update=delta_monotone(0.25), measure=measure, gamma=10.0,
            initial_norm=4.0, horizon=4000, mode=Mode.ABSTRACT)
        traj = run(cfg)
        assert traj.steps < 4000
        assert traj.final_norm == math.inf
        assert np.all(np.isfinite(traj.norm))
        overflow = (traj.events & EVENT_OVERFLOW) != 0
        assert overflow[-1] and overflow.sum() == 1
        return traj

    def test_runaway_norm_stops_flagged_overflow(self):
        # 1.25x growth per step passes the largest float near step 3,200.
        out = io.StringIO()
        self.runaway(length_measure()).write_csv(out)
        assert out.getvalue().splitlines()[-1].endswith(",OVERFLOW")

    def test_power_law_gain_overflow_stops_flagged_overflow(self):
        # The squared gain of a meaning as long as the context passes the
        # largest float before the norm does.
        self.runaway(power_measure(2.0))

    def test_concrete_norm_past_the_largest_float_stops_flagged_overflow(self):
        # delta 1e308 times a squared gain of 64: the first new norm is inf,
        # and no string of that length is built. The ABSTRACT run takes the
        # segment path to the same stop.
        for mode, symbols in ((Mode.CONCRETE, ""), (Mode.ABSTRACT, None)):
            cfg = RunConfig(
                channel=ChannelSpec(psi_kind=PsiKind.IDENTITY, noise_len=8, seed=0),
                update=delta_monotone(1e308), measure=power_measure(2.0),
                gamma=10.0, horizon=5, mode=mode)
            traj = run(cfg)
            assert traj.steps == 1 and traj.final_norm == math.inf
            assert traj.events[-1] & EVENT_OVERFLOW and traj.final_symbols == symbols
            assert_run_matches_step_loop(cfg)

    def test_segment_norm_past_the_largest_float_stops_flagged_overflow(self):
        # 8e307 a step: 8e307, 1.6e308, then inf on step 3, inside a segment.
        cfg = RunConfig(
            channel=ChannelSpec(psi_kind=PsiKind.IDENTITY, noise_len=8, seed=0),
            update=delta_monotone(1e307), measure=length_measure(),
            gamma=10.0, horizon=50, mode=Mode.ABSTRACT)
        traj = run(cfg)
        assert traj.steps == 3 and traj.final_norm == math.inf
        assert traj.events[-1] & EVENT_OVERFLOW
        assert_run_matches_step_loop(cfg)

    def test_concrete_context_past_max_symbols_stops_flagged_overflow(self):
        # MIRROR + APPEND doubles the context every step: by step 40 it would
        # need a terabyte. The run goes in a child whose address space is
        # capped at 2 GiB, so a missing cap ends there in a MemoryError.
        child = textwrap.dedent("""
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
            from loopsim.channel import ChannelSpec, PsiKind
            from loopsim.engine import (ContextState, Mode, RunConfig, UpdateKind,
                                        UpdateRuleSpec, run, step)
            cfg = RunConfig(channel=ChannelSpec(psi_kind=PsiKind.MIRROR, seed=3),
                            update=UpdateRuleSpec(UpdateKind.APPEND), mode=Mode.CONCRETE,
                            initial_norm=1.0, initial_symbols="1", horizon=40)
            traj = run(cfg)
            last = ContextState(Mode.CONCRETE, traj.norm[-1], traj.final_symbols)
            new, _ = step(last, traj.steps - 1, cfg)
            print(traj.steps, traj.final_norm, len(traj.final_symbols), traj.events[-1],
                  new.norm, new.symbols == traj.final_symbols)
            """)
        src = os.path.dirname(os.path.dirname(loopsim.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        result = subprocess.run([sys.executable, "-c", child], capture_output=True,
                                text=True, timeout=300, env=env)
        assert result.returncode == 0, result.stderr[-2000:]
        # Norms 1, 2, 4, ...: step 24 would make 2**25 symbols.
        assert result.stdout.split() == [
            "25", str(2.0 * MAX_SYMBOLS), str(MAX_SYMBOLS), str(EVENT_OVERFLOW),
            str(2.0 * MAX_SYMBOLS), "True"]

    @pytest.mark.parametrize("mode,channel,initial_norm", [
        (Mode.CONCRETE, dict(psi_kind=PsiKind.DECAYING, decay_len=1e300), 0.0),
        (Mode.CONCRETE, dict(psi_kind=PsiKind.DECAYING, decay_len=1e10), 0.0),
        (Mode.ABSTRACT, dict(psi_kind=PsiKind.DECAYING, decay_len=math.inf), 0.0),
        (Mode.ABSTRACT, dict(psi_kind=PsiKind.DECAYING, decay_len=5.0,
                             decay_power=-1.0), 0.0),
        (Mode.CONCRETE, dict(psi_kind=PsiKind.GATED, gain_hi=MAX_SYMBOLS + 1), 0.0),
        (Mode.CONCRETE, dict(psi_kind=PsiKind.MIRROR), 1e300),
    ], ids=["decay_len_1e300", "decay_len_1e10", "decay_len_inf", "growing_decay",
            "gain_hi", "mirror_from_1e300"])
    def test_a_meaning_past_max_symbols_is_refused_at_load(self, mode, channel,
                                                          initial_norm):
        # Each would build its first meaning before any norm check: a bare
        # OverflowError, or a 10 GB string for decay_len 1e10.
        with pytest.raises(ValueError):
            RunConfig(channel=ChannelSpec(**channel),
                      update=UpdateRuleSpec(UpdateKind.OVERWRITE),
                      mode=mode, initial_norm=initial_norm, horizon=3)

    def test_abstract_decaying_run_takes_a_huge_decay_len(self):
        cfg = RunConfig(channel=ChannelSpec(psi_kind=PsiKind.DECAYING, decay_len=1e300),
                        update=UpdateRuleSpec(UpdateKind.OVERWRITE), horizon=3)
        traj = run(cfg)
        assert traj.steps == 3 and 1e299 < traj.final_norm < math.inf
        assert_run_matches_step_loop(cfg)

    def test_decaying_gain_growth_is_sublinear(self):
        from loopsim.engine.checks import sublinear_growth_report
        cfg = RunConfig(
            channel=ChannelSpec(psi_kind=PsiKind.DECAYING, decay_len=1e6,
                                decay_power=1.0, noise_len=8, seed=5),
            update=UpdateRuleSpec(UpdateKind.SUBLINEAR, h_kind=SublinearKind.LOG1P),
            gamma=1.0, horizon=100_000, mode=Mode.ABSTRACT)
        report = sublinear_growth_report(run(cfg), 10_000, 100_000)
        assert report["ratio"] < 10.0
        assert report["sublinear"]
