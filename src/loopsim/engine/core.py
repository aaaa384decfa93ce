"""The single-agent feedback recursion.

Each step draws self-referential noise, maps it to a meaning, scores the
meaning with the configured gain measure, and folds it into the context under
the configured update rule. Two execution modes share one transition:
ABSTRACT keeps only the real-valued norm ledger (exact checks, no symbol
materialisation), CONCRETE maintains the actual symbol sequence. `run` takes
most ABSTRACT runs in vectorised segments and the rest one step at a time.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple, TextIO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..channel import (
    ChannelSpec,
    PsiKind,
    apply_psi,
    context_tag,
    epsilon_array,
    epsilon_at,
    mask_stream,
    mask_u01,
    meaning_digest,
    noise_from_digest,
    psi_output_length,
    tag_hasher,
    tile,
)
from ..columns import write_csv
from ..cost import CostModel, CostVariant, flops_array, flops_at
from ..meanings import Meaning
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
        if self.initial_norm < 0.0:
            raise ValueError("initial_norm must be nonnegative")
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
        with np.errstate(over="ignore"):  # an OVERFLOW run may sum to inf
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


def _increment(rule: UpdateRuleSpec, mlen: int, omega: float) -> float:
    """What a meaning of length ``mlen`` and gain ``omega`` adds to the norm.

    Defined for every rule but OVERWRITE, whose new norm is ``float(mlen)``.
    WINDOWED's cap is applied by the caller.
    """
    kind = rule.kind
    if kind is UpdateKind.APPEND:
        return float(mlen)
    if kind is UpdateKind.SUBLINEAR:
        return _sublinear(rule.h_kind, omega)
    return rule.delta * rule.gain_scale * omega  # DELTA_MONOTONE or WINDOWED


def _budget_tripped(cfg: RunConfig, norm: float, cum_flops: float) -> bool:
    gate = cfg.budget
    if gate is None:
        return False
    if gate.max_norm is not None and norm > gate.max_norm:
        return True
    if gate.max_flops is not None and cum_flops > gate.max_flops:
        return True
    return False


def _transition(norm, symbols, t, cfg, masked, cum_flops, digest, tag):
    """Returns (new_norm, new_symbols, omega, delta, event_bits).

    ABSTRACT passes None for ``symbols``, ``digest`` and ``tag`` (and gets
    None back). CONCRETE passes the `meaning_digest` of ``symbols``, which
    keys the noise, and for TAGGED_INJECTIVE the `context_tag` of the context.
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
            digest = meaning_digest(symbols)
            if tag is not None:
                tag = context_tag(symbols, norm, tag_hasher(symbols))

    if symbols is None:
        mlen = 0 if masked else psi_output_length(cfg.channel, norm, t)
        omega = cfg.measure.evaluate_length(mlen)
    else:
        noise = noise_from_digest(digest, t, cfg.channel)
        m = apply_psi(noise, tag, norm, t, cfg.channel, masked)
        mlen = len(m)
        omega = cfg.measure.evaluate(Meaning(m))

    if kind is UpdateKind.OVERWRITE:
        new_norm = float(mlen)
    else:
        new_norm = norm + _increment(rule, mlen, omega)
        if kind is UpdateKind.WINDOWED and new_norm >= rule.window:
            new_norm = float(rule.window)
            events |= EVENT_BURST_HIT_W

    if symbols is not None:
        if kind is UpdateKind.OVERWRITE:
            symbols = m
        elif kind is UpdateKind.APPEND:
            symbols += m
        elif int(new_norm) > len(symbols):
            symbols += tile(m, int(new_norm) - len(symbols))
    return new_norm, symbols, omega, new_norm - entry_norm, events


def step(state: ContextState, t: int, cfg: RunConfig,
         cum_flops: float = 0.0) -> tuple[ContextState, StepRecord]:
    """One transition of the recursion, as a pure function of the state.

    ``cum_flops`` is the compute already spent, consulted by the budget gate.
    """
    spec = cfg.channel
    eps_t = 0.0 if spec.mask_rate.is_zero else epsilon_at(max(t, 1), spec.mask_rate)
    masked = eps_t > 0.0 and mask_u01(spec, t) < eps_t
    flops = flops_at(state.norm, cfg.cost_model)
    symbols = state.symbols if cfg.mode is Mode.CONCRETE else None
    digest = None if symbols is None else meaning_digest(symbols)
    tag = (None if symbols is None or spec.psi_kind is not PsiKind.TAGGED_INJECTIVE
           else context_tag(symbols, state.norm, tag_hasher(symbols)))
    new_norm, new_symbols, omega, delta, events = _transition(
        state.norm, symbols, t, cfg, masked, cum_flops, digest, tag)
    new_state = replace(state, norm=new_norm, symbols=new_symbols or "")
    return new_state, StepRecord(
        t, state.norm, omega, delta, eps_t, flops, event_names(events))


# ψ kinds whose meaning length depends on the norm at most through GATED's
# gate; ABSTRACT runs over them take the segment path.
_SEGMENT_PSI = (PsiKind.IDENTITY, PsiKind.TAGGED_INJECTIVE, PsiKind.CONSTANT,
                PsiKind.GATED)
# Segment chunks start at 64 steps and double up to 4,096; a WINDOWED burst
# table holds at most 2**17 float64 cells (1 MiB). A run whose segments
# average under 16 steps goes on one step at a time: a segment costs about
# as much as ten steps of the per-step loop.
_CHUNK_MIN, _CHUNK_MAX, _TABLE_CELLS, _SHORT_SEGMENT = 64, 4096, 1 << 17, 16


def run(cfg: RunConfig) -> Trajectory:
    """Iterate the recursion for the configured horizon.

    A step whose new norm is not finite is flagged OVERFLOW and ends the run.
    Deterministic CONCRETE runs also stop early once the state provably
    repeats forever (the transition is then a fixed function of the state);
    the truncated trajectory carries the fixed-point step.

    ABSTRACT runs over IDENTITY, TAGGED_INJECTIVE, CONSTANT and GATED take
    the segment path; every other run takes one `_transition` per step. Both
    give the bits a plain `step` loop gives.
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
    columns = [norm_a, omega_a, delta_a, eps_a, flops_a, events_a]

    if cfg.mode is Mode.ABSTRACT and spec.psi_kind in _SEGMENT_PSI:
        steps, norm = _run_segments(cfg, masked_a, columns)
        extra = {}
    else:
        steps, norm, extra = _run_steps(cfg, masked_a, columns)
    if steps < horizon:
        columns = [a[:steps].copy() for a in columns]
    return Trajectory(cfg, cfg.seed, *columns, final_norm=norm, **extra)


def _run_steps(cfg, masked_a, columns, start=None):
    """The per-step path: one `_transition` per step.

    ``start`` = (t, norm, cum_flops, crossed) resumes an ABSTRACT run the
    segment path began. Returns (steps, final norm, the CONCRETE fields of
    the Trajectory).
    """
    norm_a, omega_a, delta_a, _, flops_a, events_a = columns
    spec = cfg.channel
    model = cfg.cost_model
    full_cost = model.variant is CostVariant.FULL
    a_attn, a_ffn = model.alpha_attn, model.alpha_ffn
    gamma = cfg.gamma
    t0, norm, cum_flops, crossed = start or (
        0, float(cfg.initial_norm), 0.0, cfg.initial_norm > gamma)

    concrete = cfg.mode is Mode.CONCRETE
    symbols = cfg.initial_symbols if concrete else None
    can_stop = concrete and cfg.stop_on_fixed_point and spec.deterministic
    growing = concrete and cfg.update.kind in _GROWING
    tagged = concrete and spec.psi_kind is PsiKind.TAGGED_INJECTIVE
    # Rolling digest and tag hashes: fed the new symbols while they only grow.
    hasher = hashlib.blake2b(symbols.encode(), digest_size=8) if concrete else None
    tagger = tag_hasher(symbols) if tagged else None
    initial_digest = hasher.digest() if concrete else None
    digests: list[bytes] | None = [] if concrete else None
    fixed_point_step = None
    steps = cfg.horizon

    for t in range(t0, cfg.horizon):
        masked = bool(masked_a[t]) if masked_a is not None else False
        new_norm, new_symbols, omega, delta, events = _transition(
            norm, symbols, t, cfg, masked, cum_flops,
            hasher.digest() if concrete else None,
            context_tag(symbols, norm, tagger) if tagged else None)
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
                fresh = new_symbols[len(symbols):].encode()
                hasher.update(fresh)
                if tagged:
                    tagger.update(fresh)
            else:
                hasher = hashlib.blake2b(new_symbols.encode(), digest_size=8)
                tagger = tag_hasher(new_symbols) if tagged else None
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
    return steps, norm, {"final_symbols": symbols, "digests": digests,
                         "initial_digest": initial_digest,
                         "fixed_point_step": fixed_point_step}


@np.errstate(over="ignore")  # an overflow is flagged, as in the float loop
def _run_segments(cfg, masked_a, columns):
    """The segment path: an ABSTRACT run in stretches of one regime.

    Inside a segment the budget gate stays shut and the norm stays on one
    side of GATED's ``gamma_true``, so every meaning is empty (masked) or
    has one length L, and gain and increment take one of two values each.
    The norms are then a cumsum, which numpy accumulates left to right as
    the step loop adds. A segment ends after the last step of its regime;
    a non-finite norm ends the run (OVERFLOW), and an open budget gate
    freezes the rest of it. Returns (steps, final norm).
    """
    norm_a, omega_a, delta_a, _, flops_a, events_a = columns
    horizon, spec, rule, gate = cfg.horizon, cfg.channel, cfg.update, cfg.budget
    model, gamma = cfg.cost_model, cfg.gamma
    windowed = rule.kind is UpdateKind.WINDOWED
    gated = spec.psi_kind is PsiKind.GATED
    max_norm = math.inf if gate is None or gate.max_norm is None else gate.max_norm
    max_flops = math.inf if gate is None or gate.max_flops is None else gate.max_flops
    omega_0 = cfg.measure.evaluate_length(0)
    norm = float(cfg.initial_norm)
    cum_flops, crossed = 0.0, norm > gamma
    t, chunk, segments = 0, _CHUNK_MIN, 0

    while t < horizon:
        if segments > 8 and t < _SHORT_SEGMENT * segments:
            # The regime switches every few steps (an OVERWRITE gate flipping
            # on every mask, a gate inside each WINDOWED burst): one step
            # costs less than the numpy calls of a segment.
            return _run_steps(cfg, masked_a, columns, (t, norm, cum_flops, crossed))[:2]
        segments += 1
        if _budget_tripped(cfg, norm, cum_flops):
            # The gate never reopens: the norm and the cost stay put.
            rest = slice(t, horizon)
            norm_a[rest], omega_a[rest], delta_a[rest] = norm, 0.0, 0.0
            flops_a[rest] = flops_array([norm], model)[0]
            events_a[rest] = EVENT_BUDGET_FROZEN
            if masked_a is not None:
                events_a[rest] |= masked_a[rest]  # EVENT_MASKED is bit 1
            return horizon, norm
        x0 = float(rule.drop_to) if windowed and norm >= rule.window else norm
        mlen = psi_output_length(spec, x0, t)
        omega_l = cfg.measure.evaluate_length(mlen)
        c = min(chunk, horizon - t)
        m = masked_a[t:t + c] if masked_a is not None else np.zeros(c, dtype=bool)
        hit_w = None
        # x: the norm each step adds to (after WINDOWED's drop); entry: the
        # norm before the step; new: the norm after it.
        if rule.kind is UpdateKind.OVERWRITE:
            new = np.where(m, 0.0, float(mlen))
            entry = x = np.concatenate(([norm], new[:-1]))
        else:
            inc = np.where(m, _increment(rule, 0, omega_0), _increment(rule, mlen, omega_l))
            if windowed:
                entry, x, new, hit_w = _bursts(norm, x0, inc, rule)
            else:
                path = np.cumsum(np.concatenate(([norm], inc)))
                entry = x = path[:-1]
                new = path[1:]
        flops = flops_array(entry, model)
        cum = np.cumsum(np.concatenate(([cum_flops], flops)))

        # Cut before the first step in another regime, after the first
        # non-finite norm.
        change = (entry > max_norm) | (cum[:-1] > max_flops)
        if gated:
            change |= (x <= spec.gamma_true) != (x0 <= spec.gamma_true)
        n = int(change.argmax()) if change.any() else len(new)
        overflow = ~np.isfinite(new[:n])
        stop = bool(overflow.any())
        if stop:
            n = int(overflow.argmax()) + 1

        events = m[:n].astype(np.uint16)
        if hit_w is not None:
            events[hit_w[:n]] |= EVENT_BURST_HIT_W
        if not crossed:
            above = new[:n] > gamma
            if above.any():
                events[above.argmax()] |= EVENT_CROSSED_GAMMA
                crossed = True
        if stop:
            events[n - 1] |= EVENT_OVERFLOW
        span = slice(t, t + n)
        norm_a[span] = entry[:n]
        omega_a[span] = np.where(m[:n], omega_0, omega_l)
        delta_a[span] = new[:n] - entry[:n]
        flops_a[span] = flops[:n]
        events_a[span] = events
        norm, cum_flops, t = float(new[n - 1]), float(cum[n]), t + n
        if stop:
            return t, norm
        chunk = min(max(2 * n, _CHUNK_MIN), _CHUNK_MAX)
    return horizon, norm


def _bursts(norm, x0, inc, rule):
    """WINDOWED steps over a chunk of increments, one burst after another.

    Row s of the burst table is a burst that starts at step s: ``drop_to``
    (``x0`` for s = 0) followed by the increments from step s on, summed
    along the row, so each entry is the step loop's own left-to-right sum. A
    burst ends at its first entry at or above the window, and the next one
    starts a step later. Rows are about twice the mean burst long, and a
    burst that outlasts its row ends the chunk there. When a burst is
    expected to outlast the chunk, the table is the one row from ``x0`` and
    the chunk ends at its first cap hit. Returns (entry, x, new, hit_w) for
    the steps covered, as in `_run_segments`.
    """
    window, drop_to = float(rule.window), float(rule.drop_to)
    c = len(inc)
    rate = float(inc.mean())
    width = c if rate <= 0.0 else int(min(c, 2.0 * (window - drop_to) / rate + 8.0))
    if width < c:
        c = min(c, _TABLE_CELLS // (width + 1))
        starts = np.full(c, drop_to)
        starts[0] = x0
        tail = sliding_window_view(np.concatenate((inc[:c], np.zeros(width - 1))), width)
        rows = np.cumsum(np.column_stack((starts, tail)), axis=1)
    else:
        width = c
        rows = np.cumsum(np.concatenate(([x0], inc)))[None]
    hit = rows[:, 1:] >= window
    ends = np.where(hit.any(axis=1), hit.argmax(axis=1) + 1, 0).tolist()
    first, s = [0], 0
    while ends[s] and s + ends[s] < len(ends):
        s += ends[s]
        first.append(s)
    n = s + ends[s] if ends[s] else min(s + width, c)
    burst = np.repeat(first, np.diff(first + [n]))
    offset = np.arange(n) - burst
    x = rows[burst, offset]
    raw = rows[burst, offset + 1]
    hit_w = raw >= window
    new = np.where(hit_w, window, raw)
    return np.concatenate(([norm], new[:-1])), x, new, hit_w


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
