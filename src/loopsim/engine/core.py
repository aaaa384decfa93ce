"""The single-agent feedback recursion.

Each step draws self-referential noise, maps it to a meaning, scores the
meaning with the configured gain measure, and folds it into the context under
the configured update rule. Two execution modes share one transition and one
run loop: ABSTRACT keeps only the real-valued norm ledger (exact checks, no
symbol materialisation), CONCRETE maintains the actual symbol sequence.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple, TextIO

import numpy as np

from ..channel import (
    ChannelSpec,
    apply_psi,
    epsilon_array,
    epsilon_at,
    mask_fires,
    mask_stream,
    meaning_digest,
    noise_from_digest,
    psi_output_length,
    tile,
)
from ..columns import write_csv
from ..cost import CostModel, CostVariant, flops_at
from ..measures import MeasureSpec, length_measure


class AbstractModeError(RuntimeError):
    """The operation needs concrete symbols and the run kept none."""


class Mode(str, Enum):
    ABSTRACT = "ABSTRACT"
    CONCRETE = "CONCRETE"


class UpdateKind(str, Enum):
    OVERWRITE = "OVERWRITE"
    APPEND = "APPEND"
    DELTA_MONOTONE = "DELTA_MONOTONE"
    SUBLINEAR = "SUBLINEAR"
    WINDOWED = "WINDOWED"


class SublinearKind(str, Enum):
    SQRT = "SQRT"
    LOG1P = "LOG1P"


# Update kinds whose symbol sequence only ever grows by appends.
_GROWING = (UpdateKind.APPEND, UpdateKind.DELTA_MONOTONE, UpdateKind.SUBLINEAR)


@dataclass(frozen=True)
class UpdateRuleSpec:
    """Context-update rule.

    DELTA_MONOTONE grows the norm by delta * gain_scale * gain(m) with
    c1 <= gain_scale <= c2; WINDOWED does the same under a hard cap: a step
    that would reach ``window`` records exactly ``window``, and the context is
    truncated to ``drop_to`` at the start of the following step.
    """

    kind: UpdateKind = UpdateKind.APPEND
    delta: float = 1.0
    c1: float = 1.0
    c2: float = 1.0
    gain_scale: float = 1.0
    h_kind: SublinearKind = SublinearKind.LOG1P
    window: int = 0
    drop_to: float = 0.0

    def __post_init__(self) -> None:
        if self.kind in (UpdateKind.DELTA_MONOTONE, UpdateKind.WINDOWED):
            if self.delta <= 0.0:
                raise ValueError("delta must be positive")
            if not 0.0 < self.c1 <= self.c2:
                raise ValueError("need 0 < c1 <= c2")
            if not self.c1 <= self.gain_scale <= self.c2:
                raise ValueError("gain_scale must lie in [c1, c2]")
        if self.kind is UpdateKind.WINDOWED:
            if self.window < 1:
                raise ValueError("window must be at least 1")
            if not 0.0 <= self.drop_to < self.window:
                raise ValueError("drop_to must lie in [0, window)")


def delta_monotone(delta: float, gain_scale: float = 1.0,
                   c1: float = 1.0, c2: float = 1.0) -> UpdateRuleSpec:
    return UpdateRuleSpec(UpdateKind.DELTA_MONOTONE, delta=delta,
                          c1=c1, c2=c2, gain_scale=gain_scale)


def windowed(window: int, delta: float = 1.0, drop_to: float = 0.0) -> UpdateRuleSpec:
    return UpdateRuleSpec(UpdateKind.WINDOWED, delta=delta, window=window, drop_to=drop_to)


@dataclass(frozen=True)
class BudgetGate:
    """External policy gate: once tripped, the context freezes (zero increment).

    Frozen steps still cost serving flops; they are flagged, not terminated.
    """

    max_flops: float | None = None
    max_norm: float | None = None


@dataclass(frozen=True)
class ContextState:
    mode: Mode = Mode.ABSTRACT
    norm: float = 0.0
    symbols: str = ""

    def __post_init__(self) -> None:
        if self.norm < 0.0:
            raise ValueError("norm must be nonnegative")
        if self.mode is Mode.ABSTRACT and self.symbols:
            raise ValueError("ABSTRACT contexts carry no symbols")


@dataclass(frozen=True)
class RunConfig:
    channel: ChannelSpec
    update: UpdateRuleSpec
    measure: MeasureSpec = field(default_factory=length_measure)
    gamma: float = 1.0
    horizon: int = 1
    mode: Mode = Mode.ABSTRACT
    initial_norm: float = 0.0
    initial_symbols: str = ""
    budget: BudgetGate | None = None
    cost_model: CostModel = field(default_factory=CostModel)
    stop_on_fixed_point: bool = True

    def __post_init__(self) -> None:
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.mode is Mode.ABSTRACT and not self.measure.length_arithmetic:
            raise ValueError(
                "ABSTRACT mode supports length-arithmetic measures only; "
                "symbol-dependent measures need CONCRETE mode")
        if self.mode is Mode.CONCRETE and self.initial_symbols:
            if len(self.initial_symbols) != int(self.initial_norm):
                raise ValueError("initial_norm must equal len(initial_symbols)")

    @property
    def seed(self) -> int:
        return self.channel.seed

    def initial_state(self) -> ContextState:
        return ContextState(
            mode=self.mode,
            norm=float(self.initial_norm),
            symbols=self.initial_symbols if self.mode is Mode.CONCRETE else "",
        )


EVENT_MASKED = 1
EVENT_CROSSED_GAMMA = 2
EVENT_BURST_HIT_W = 4
EVENT_FIXED_POINT = 8
EVENT_BUDGET_FROZEN = 16
EVENT_OVERFLOW = 32

_EVENT_NAMES = (
    (EVENT_MASKED, "MASKED"),
    (EVENT_CROSSED_GAMMA, "CROSSED_GAMMA"),
    (EVENT_BURST_HIT_W, "BURST_HIT_W"),
    (EVENT_FIXED_POINT, "FIXED_POINT"),
    (EVENT_BUDGET_FROZEN, "BUDGET_FROZEN"),
    (EVENT_OVERFLOW, "OVERFLOW"),
)


def event_names(bits: int) -> tuple[str, ...]:
    return tuple(name for bit, name in _EVENT_NAMES if bits & bit)


class StepRecord(NamedTuple):
    t: int
    norm: float
    omega: float
    delta: float
    epsilon_t: float
    flops: float
    events: tuple[str, ...]


CSV_HEADER = "t,norm,omega,delta,epsilon_t,flops,events"
_EVENT_TEXT = np.array([";".join(event_names(bits)) for bits in range(64)], dtype=object)


@dataclass
class Trajectory:
    """Columnar per-step records.

    Index t holds the state norm before step t, the gain and increment the
    step realised, and its event flags; ``final_norm`` is the state after the
    last recorded step, so ``norms`` has length steps + 1.
    """

    config: RunConfig
    seed: int
    norm: np.ndarray
    omega: np.ndarray
    delta: np.ndarray
    epsilon_t: np.ndarray
    flops: np.ndarray
    events: np.ndarray
    final_norm: float
    final_symbols: str | None = None
    digests: list[bytes] | None = None
    initial_digest: bytes | None = None
    fixed_point_step: int | None = None

    @property
    def steps(self) -> int:
        return len(self.norm)

    @property
    def norms(self) -> np.ndarray:
        return np.append(self.norm, self.final_norm)

    @property
    def total_flops(self) -> float:
        return float(self.flops.sum())

    def first_crossing(self, level: float) -> int | None:
        """Smallest state index t with norm strictly above the level."""
        above = np.nonzero(self.norms > level)[0]
        return int(above[0]) if len(above) else None

    def records_equal(self, other: "Trajectory") -> bool:
        return (
            self.steps == other.steps
            and bool(np.array_equal(self.norm, other.norm))
            and bool(np.array_equal(self.omega, other.omega))
            and bool(np.array_equal(self.delta, other.delta))
            and bool(np.array_equal(self.epsilon_t, other.epsilon_t))
            and bool(np.array_equal(self.flops, other.flops))
            and bool(np.array_equal(self.events, other.events))
            and self.final_norm == other.final_norm
        )

    def write_csv(self, out: TextIO) -> None:
        write_csv(out, CSV_HEADER,
                  [self.norm, self.omega, self.delta, self.epsilon_t, self.flops],
                  _EVENT_TEXT[self.events].tolist())


def _sublinear(h_kind: SublinearKind, x: float) -> float:
    if h_kind is SublinearKind.SQRT:
        return math.sqrt(x)
    return math.log1p(x)


def _budget_tripped(cfg: RunConfig, norm: float, cum_flops: float) -> bool:
    gate = cfg.budget
    if gate is None:
        return False
    if gate.max_norm is not None and norm > gate.max_norm:
        return True
    if gate.max_flops is not None and cum_flops > gate.max_flops:
        return True
    return False


def _transition(norm, symbols, t, cfg, masked, cum_flops, prev_digest=None):
    """Returns (new_norm, new_symbols, omega, delta, event_bits).

    ABSTRACT passes ``symbols=None`` (and gets None back): the meaning is
    reduced to its length. ``prev_digest`` short-circuits hashing the context
    for the noise draw; callers may pass it only when the symbols cannot have
    been truncated.
    """
    rule = cfg.update
    kind = rule.kind
    events = EVENT_MASKED if masked else 0

    if _budget_tripped(cfg, norm, cum_flops):
        return norm, symbols, 0.0, 0.0, events | EVENT_BUDGET_FROZEN

    entry_norm = norm
    if kind is UpdateKind.WINDOWED and norm >= rule.window:
        norm = float(rule.drop_to)
        if symbols is not None:
            keep = int(rule.drop_to)
            symbols = symbols[len(symbols) - keep:] if keep else ""
            prev_digest = None

    if symbols is None:
        mlen = 0 if masked else psi_output_length(cfg.channel, norm, t)
        omega = cfg.measure.evaluate_length(mlen)
    else:
        if prev_digest is None:
            prev_digest = meaning_digest(symbols)
        noise = noise_from_digest(prev_digest, t, cfg.channel)
        m = apply_psi(noise, ContextState(Mode.CONCRETE, norm, symbols),
                      cfg.channel, masked=masked)
        mlen = len(m)
        omega = cfg.measure.evaluate(m)

    if kind is UpdateKind.OVERWRITE:
        new_norm = float(mlen)
    elif kind is UpdateKind.APPEND:
        new_norm = norm + mlen
    elif kind is UpdateKind.SUBLINEAR:
        new_norm = norm + _sublinear(rule.h_kind, omega)
    else:  # DELTA_MONOTONE or WINDOWED
        new_norm = norm + rule.delta * rule.gain_scale * omega
        if kind is UpdateKind.WINDOWED and new_norm >= rule.window:
            new_norm = float(rule.window)
            events |= EVENT_BURST_HIT_W

    if symbols is not None:
        if kind is UpdateKind.OVERWRITE:
            symbols = m.symbols
        elif kind is UpdateKind.APPEND:
            symbols += m.symbols
        elif int(new_norm) > len(symbols):
            symbols += tile(m.symbols, int(new_norm) - len(symbols))
    return new_norm, symbols, omega, new_norm - entry_norm, events


def step(state: ContextState, t: int, cfg: RunConfig,
         cum_flops: float = 0.0) -> tuple[ContextState, StepRecord]:
    """One transition of the recursion, as a pure function of the state.

    ``cum_flops`` is the compute already spent, consulted by the budget gate.
    """
    spec = cfg.channel
    masked = mask_fires(spec, t)
    eps_t = 0.0 if spec.mask_rate.is_zero else epsilon_at(max(t, 1), spec.mask_rate)
    flops = flops_at(state.norm, cfg.cost_model)
    symbols = state.symbols if cfg.mode is Mode.CONCRETE else None
    new_norm, new_symbols, omega, delta, events = _transition(
        state.norm, symbols, t, cfg, masked, cum_flops)
    new_state = replace(state, norm=new_norm, symbols=new_symbols or "")
    return new_state, StepRecord(
        t, state.norm, omega, delta, eps_t, flops, event_names(events))


def run(cfg: RunConfig) -> Trajectory:
    """Iterate the recursion for the configured horizon.

    A step whose new norm is not finite is flagged OVERFLOW and ends the run.
    Deterministic CONCRETE runs also stop early once the state provably
    repeats forever (the transition is then a fixed function of the state);
    the truncated trajectory carries the fixed-point step.
    """
    horizon = cfg.horizon
    spec = cfg.channel
    norm_a, omega_a, delta_a, flops_a = (np.empty(horizon) for _ in range(4))
    events_a = np.zeros(horizon, dtype=np.uint16)
    if spec.mask_rate.is_zero:
        eps_a, masked_a = np.zeros(horizon), None
    else:
        eps_a = epsilon_array(spec.mask_rate, horizon)
        masked_a = mask_stream(spec, horizon) < eps_a

    model = cfg.cost_model
    full_cost = model.variant is CostVariant.FULL
    a_attn, a_ffn = model.alpha_attn, model.alpha_ffn
    gamma = cfg.gamma
    norm = float(cfg.initial_norm)
    cum_flops = 0.0
    crossed = norm > gamma

    concrete = cfg.mode is Mode.CONCRETE
    symbols = cfg.initial_symbols if concrete else None
    can_stop = concrete and cfg.stop_on_fixed_point and spec.deterministic
    growing = concrete and cfg.update.kind in _GROWING
    # Rolling context hash: valid while the symbol sequence only grows.
    hasher = hashlib.blake2b(symbols.encode(), digest_size=8) if concrete else None
    initial_digest = hasher.digest() if concrete else None
    digests: list[bytes] | None = [] if concrete else None
    fixed_point_step = None
    steps = horizon

    for t in range(horizon):
        masked = bool(masked_a[t]) if masked_a is not None else False
        new_norm, new_symbols, omega, delta, events = _transition(
            norm, symbols, t, cfg, masked, cum_flops,
            hasher.digest() if growing else None)
        flops = (a_attn * norm * norm + a_ffn * norm) if full_cost else flops_at(norm, model)
        cum_flops += flops
        if not crossed and new_norm > gamma:
            events |= EVENT_CROSSED_GAMMA
            crossed = True
        stop = not math.isfinite(new_norm)
        if stop:
            events |= EVENT_OVERFLOW
        if concrete:
            if can_stop and new_symbols == symbols and new_norm == norm:
                events |= EVENT_FIXED_POINT
                fixed_point_step = t
                stop = True
            if growing:
                hasher.update(new_symbols[len(symbols):].encode())
            else:
                hasher = hashlib.blake2b(new_symbols.encode(), digest_size=8)
            digests.append(hasher.digest())
        norm_a[t] = norm
        omega_a[t] = omega
        delta_a[t] = delta
        flops_a[t] = flops
        events_a[t] = events
        norm, symbols = new_norm, new_symbols
        if stop:
            steps = t + 1
            break

    columns = [norm_a, omega_a, delta_a, eps_a, flops_a, events_a]
    if steps < horizon:
        columns = [a[:steps].copy() for a in columns]
    return Trajectory(cfg, cfg.seed, *columns, final_norm=norm,
                      final_symbols=symbols, digests=digests,
                      initial_digest=initial_digest,
                      fixed_point_step=fixed_point_step)


def detect_fixed_point(traj: Trajectory) -> int | None:
    """Smallest t whose state repeats unchanged through the end of the run.

    Needs concrete symbols: state equality is undefined on a bare norm ledger.
    """
    if traj.config.mode is not Mode.CONCRETE or traj.digests is None:
        raise AbstractModeError("fixed-point detection needs a CONCRETE run")
    if traj.fixed_point_step is not None:
        return traj.fixed_point_step
    states = [traj.initial_digest] + list(traj.digests)
    norms = traj.norms
    j = len(states) - 1
    while j > 0 and states[j] == states[j - 1] and norms[j] == norms[j - 1]:
        j -= 1
    if j == len(states) - 1:
        return None
    return j
