"""The single-agent feedback recursion.

Each step draws self-referential noise, maps it to a meaning, scores the
meaning with the configured gain measure, and folds it into the context under
the configured update rule. ABSTRACT mode keeps only the real-valued norm
ledger (exact checks, no symbol materialisation), CONCRETE mode maintains the
actual symbol sequence. `step` is the one reference transition; `run` takes
most ABSTRACT runs in vectorised segments and the rest one step at a time,
then derives every other column once: it gives the bits a `step` loop gives.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cache
from itertools import repeat
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
    noise_key,
    psi_output_length,
    tag_hasher,
    tile,
)
from ..columns import write_csv
from ..cost import CostModel, flops_array, flops_at
from ..meanings import Meaning
from ..measures import MeasureKind, MeasureSpec, length_measure


class PreconditionError(ValueError):
    """The run does not meet a check's premise: it needs concrete symbols,
    a crossing, another update rule or a start below the threshold."""


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


# A CONCRETE step to a norm above this (or not finite) keeps its symbols, and
# the run ends there flagged OVERFLOW: MIRROR + APPEND doubles them each step.
MAX_SYMBOLS = 1 << 24

# The most steps a run, or agent-ticks a swarm, may take: a run's columns
# hold about 42 bytes a step, so this caps them near 2.8 GB.
MAX_STEPS = 1 << 26


@dataclass(frozen=True)
class UpdateRuleSpec:
    """Context-update rule.

    DELTA_MONOTONE grows the norm by delta * gain(m);
    WINDOWED does the same under a hard cap: a step that would reach
    ``window`` records exactly ``window``, and the context is truncated to
    ``drop_to`` at the start of the following step.
    """

    kind: UpdateKind = UpdateKind.APPEND
    delta: float = 1.0
    h_kind: SublinearKind = SublinearKind.LOG1P
    window: int = 0
    drop_to: float = 0.0

    def __post_init__(self) -> None:
        if self.kind in (UpdateKind.DELTA_MONOTONE, UpdateKind.WINDOWED):
            if not 0.0 < self.delta < math.inf:
                raise ValueError("delta must be positive and finite")
        if self.kind is UpdateKind.WINDOWED:
            if self.window < 1:
                raise ValueError("window must be at least 1")
            if not 0.0 <= self.drop_to < self.window:
                raise ValueError("drop_to must lie in [0, window)")


def delta_monotone(delta: float) -> UpdateRuleSpec:
    return UpdateRuleSpec(UpdateKind.DELTA_MONOTONE, delta=delta)


def windowed(window: int, delta: float = 1.0, drop_to: float = 0.0) -> UpdateRuleSpec:
    return UpdateRuleSpec(UpdateKind.WINDOWED, delta=delta, window=window, drop_to=drop_to)


@dataclass(frozen=True)
class BudgetGate:
    """External policy gate: once tripped, the context freezes (zero increment).

    Frozen steps still cost serving flops; they are flagged, not terminated.
    """

    max_flops: float = math.inf
    max_norm: float = math.inf

    def __post_init__(self) -> None:
        if math.isnan(self.max_flops) or math.isnan(self.max_norm):
            raise ValueError("max_flops and max_norm must be numbers")


@dataclass(frozen=True)
class ContextState:
    mode: Mode = Mode.ABSTRACT
    norm: float = 0.0
    symbols: str = ""

    def __post_init__(self) -> None:
        if not self.norm >= 0.0:
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

    def __post_init__(self) -> None:
        if not self.gamma > 0.0:
            raise ValueError("gamma must be positive")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.horizon > MAX_STEPS:
            raise ValueError(f"horizon must be at most {MAX_STEPS}")
        if not 0.0 <= self.initial_norm < math.inf:
            raise ValueError("initial_norm must be nonnegative and finite")
        if self.mode is Mode.ABSTRACT and not self.measure.length_arithmetic:
            raise ValueError(
                "ABSTRACT mode supports length-arithmetic measures only; "
                "symbol-dependent measures need CONCRETE mode")
        if self.mode is Mode.ABSTRACT and self.initial_symbols:
            raise ValueError("an ABSTRACT run takes no initial_symbols")
        if self.mode is Mode.CONCRETE:
            if not self.initial_norm <= MAX_SYMBOLS:
                raise ValueError(f"a CONCRETE initial_norm must be at most {MAX_SYMBOLS}")
            if len(self.initial_symbols) != int(self.initial_norm):
                raise ValueError("a CONCRETE initial_norm must equal len(initial_symbols)")
            if psi_output_length(self.channel, MAX_SYMBOLS, 0) > MAX_SYMBOLS:
                raise ValueError(f"a CONCRETE meaning must be at most {MAX_SYMBOLS} long")

    def initial_state(self) -> ContextState:
        return ContextState(self.mode, float(self.initial_norm), self.initial_symbols)

    @property
    def stop_on_fixed_point(self) -> bool:
        """True for a deterministic CONCRETE run: a step that leaves its state
        unchanged repeats forever, so the run stops there."""
        return self.mode is Mode.CONCRETE and self.channel.deterministic


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

    ``norms`` has length steps + 1: the state norm before each step, then
    the state after the last; ``norm`` is a view of all but the last. Index
    t of every other column holds step t's gain, increment, mask rate, cost
    and event flags.
    """

    config: RunConfig
    norms: np.ndarray
    omega: np.ndarray
    delta: np.ndarray
    epsilon_t: np.ndarray
    flops: np.ndarray
    events: np.ndarray
    final_symbols: str | None = None

    @property
    def steps(self) -> int:
        return len(self.omega)

    @property
    def norm(self) -> np.ndarray:
        return self.norms[:-1]

    @property
    def final_norm(self) -> float:
        return float(self.norms[-1])

    @property
    def total_flops(self) -> float:
        with np.errstate(over="ignore"):  # an OVERFLOW run may sum to inf
            return float(self.flops.sum())

    def first_crossing(self, level: float) -> int | None:
        """Smallest state index t with norm strictly above the level."""
        above = np.nonzero(self.norms > level)[0]
        return int(above[0]) if len(above) else None

    def write_csv(self, out: TextIO) -> None:
        write_csv(out, CSV_HEADER,
                  [self.norm, self.omega, self.delta, self.epsilon_t, self.flops],
                  self.events, _EVENT_TEXT)


def _increment(rule: UpdateRuleSpec):
    """What a meaning adds to the norm, as a function of its length and gain:
    for every rule but OVERWRITE, whose new norm is the meaning length.
    WINDOWED's cap is applied by the caller."""
    if rule.kind is UpdateKind.APPEND:
        return lambda mlen, omega: float(mlen)
    if rule.kind is UpdateKind.SUBLINEAR:
        h = math.sqrt if rule.h_kind is SublinearKind.SQRT else math.log1p
        return lambda mlen, omega: h(omega)
    delta = rule.delta  # DELTA_MONOTONE or WINDOWED
    return lambda mlen, omega: delta * omega


def _budget_tripped(cfg: RunConfig, norm: float, cum_flops: float) -> bool:
    gate = cfg.budget
    return gate is not None and (norm > gate.max_norm or cum_flops > gate.max_flops)


def step(state: ContextState, t: int, cfg: RunConfig,
         cum_flops: float = 0.0) -> tuple[ContextState, StepRecord]:
    """One transition of the recursion, as a pure function of the state: the
    slow reference that `run` is checked against.

    ``cum_flops`` is the compute already spent, consulted by the budget gate.
    A WINDOWED context at or above its window is first cut to ``drop_to``;
    then noise keyed by the context becomes a meaning, the meaning is scored,
    and the context is updated. A CONCRETE step to a norm past `MAX_SYMBOLS`
    keeps its symbols.
    """
    spec, rule, kind = cfg.channel, cfg.update, cfg.update.kind
    eps_t = 0.0 if spec.mask_rate.is_zero else epsilon_at(max(t, 1), spec.mask_rate)
    masked = eps_t > 0.0 and mask_u01(spec, t) < eps_t
    flops = flops_at(state.norm, cfg.cost_model)
    events = EVENT_MASKED if masked else 0
    norm, symbols = state.norm, state.symbols

    if _budget_tripped(cfg, norm, cum_flops):
        new_norm, omega, events = norm, 0.0, events | EVENT_BUDGET_FROZEN
    else:
        if kind is UpdateKind.WINDOWED and norm >= rule.window:
            norm = float(rule.drop_to)
            keep = int(rule.drop_to)
            symbols = symbols[len(symbols) - keep:] if keep else ""
        if cfg.mode is Mode.CONCRETE:
            tag = (context_tag(symbols, norm, tag_hasher(symbols))
                   if spec.psi_kind is PsiKind.TAGGED_INJECTIVE else "")
            noise = noise_from_digest(meaning_digest(symbols), t, spec)
            m = apply_psi(noise, tag, norm, t, spec, masked)
            mlen = len(m)
        else:
            mlen = 0 if masked else psi_output_length(spec, norm, t)
        omega = (cfg.measure.evaluate_length(mlen) if cfg.measure.length_arithmetic
                 else cfg.measure.evaluate(Meaning(m)))

        if kind is UpdateKind.OVERWRITE:
            new_norm = float(mlen)
        else:
            new_norm = norm + _increment(rule)(mlen, omega)
            if kind is UpdateKind.WINDOWED and new_norm >= rule.window:
                new_norm = float(rule.window)
                events |= EVENT_BURST_HIT_W

        if cfg.mode is Mode.CONCRETE and new_norm <= MAX_SYMBOLS:
            if kind is UpdateKind.OVERWRITE:
                symbols = m
            elif kind is UpdateKind.APPEND:
                symbols += m
            elif int(new_norm) > len(symbols):
                symbols += tile(m, int(new_norm) - len(symbols))
    new_state = replace(state, norm=new_norm, symbols=symbols)
    return new_state, StepRecord(t, state.norm, omega, new_norm - state.norm, eps_t,
                                 flops, event_names(events))


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

    A step to a norm that is not finite (or, CONCRETE, above `MAX_SYMBOLS`)
    is flagged OVERFLOW and ends the run. A deterministic CONCRETE step that
    leaves the state unchanged is flagged FIXED_POINT and ends it too: the
    transition is then a fixed function of the state, so it repeats forever.

    ABSTRACT runs over IDENTITY, TAGGED_INJECTIVE, CONSTANT and GATED take
    the segment path; every other run, CONCRETE runs included, takes the
    per-step path. A path writes the norms, the gains and the BURST_HIT_W,
    BUDGET_FROZEN, OVERFLOW and FIXED_POINT bits; `run` then derives, once
    for both, the MASKED bits, CROSSED_GAMMA on the step to the first norm
    above gamma, the increments and the flops: the bits a `step` loop gives.
    """
    horizon, spec = cfg.horizon, cfg.channel
    norms, omega = np.empty(horizon + 1), np.empty(horizon)
    norms[0] = cfg.initial_norm
    events = np.zeros(horizon, dtype=np.uint16)
    if spec.mask_rate.is_zero:
        eps, masked = np.zeros(horizon), None
    else:
        eps = epsilon_array(spec.mask_rate, horizon)
        masked = mask_stream(spec, horizon) < eps

    segments = cfg.mode is Mode.ABSTRACT and spec.psi_kind in _SEGMENT_PSI
    steps, symbols = (_run_segments if segments else _run_steps)(
        cfg, masked, (norms, omega, events))
    if steps < horizon:
        norms = norms[:steps + 1].copy()
        omega, eps, events = (a[:steps].copy() for a in (omega, eps, events))
    if masked is not None:
        events |= masked[:steps]  # EVENT_MASKED is bit 1
    with np.errstate(invalid="ignore"):  # inf - inf, for a run that starts at inf
        delta = norms[1:] - norms[:-1]
    traj = Trajectory(cfg, norms, omega, delta, eps, flops_array(norms[:-1], cfg.cost_model),
                      events, symbols)
    crossing = traj.first_crossing(cfg.gamma)
    if crossing:  # 0 when the run starts above gamma: no step crossed it
        events[crossing - 1] |= EVENT_CROSSED_GAMMA
    return traj


def _run_steps(cfg, masked_a, columns, start=None):
    """The per-step path: `step`'s arithmetic with its choices made once per
    run, in `step`'s order: the budget gate, the WINDOWED cut, then the step.

    A CONCRETE step draws its noise inline from the rolling digest, a
    length-arithmetic measure never sees a `Meaning`, and a context that
    grows by appends is kept as chunks joined once; a WINDOWED cut restarts
    the chunks, the digest and the tag from the symbols it keeps. Rows go
    into (norms, omega, events) through memoryviews, the norm after step t
    at index t + 1. ``start`` = (t, norm, cum_flops) resumes an ABSTRACT run
    the segment path began. Returns (steps, final symbols).
    """
    spec, rule, gate, measure = cfg.channel, cfg.update, cfg.budget, cfg.measure
    concrete = cfg.mode is Mode.CONCRETE
    overwrite, append = rule.kind is UpdateKind.OVERWRITE, rule.kind is UpdateKind.APPEND
    windowed, growing = rule.kind is UpdateKind.WINDOWED, concrete and not overwrite
    window, drop_to, keep = float(rule.window), float(rule.drop_to), int(rule.drop_to)
    identity = spec.psi_kind is PsiKind.IDENTITY
    tagged = concrete and spec.psi_kind is PsiKind.TAGGED_INJECTIVE
    grow = None if overwrite else _increment(rule)
    score = (float if measure.kind is MeasureKind.LENGTH
             else measure.evaluate_length if measure.length_arithmetic else None)
    can_stop = cfg.stop_on_fixed_point
    # Noise as `noise_from_digest` draws it: zeros at temperature 0, else the
    # first noise_len bits of keyed blake2b(digest, t, block 0), looked up by
    # its first byte when that holds them all.
    n, nbytes = spec.noise_len, -(-spec.noise_len // 8)
    zeros, bits = ("0" * n if spec.temperature == 0.0 else None), f"0{8 * nbytes}b"
    keyed = (hashlib.blake2b(key=noise_key(spec.seed), digest_size=64)
             if concrete and zeros is None and nbytes <= 64 else None)
    table = _one_byte_noise(n) if keyed and nbytes == 1 else None
    # An IDENTITY OVERWRITE context is the initial symbols, "" or one of the
    # table's strings, so each context's digest is computed once.
    digest_of = cache(meaning_digest) if table and overwrite and identity else meaning_digest

    def restart(text):
        """Chunks, length, digest hasher and tag hasher of a context ``text``."""
        return ([text], len(text),
                hashlib.blake2b(text.encode(), digest_size=8)
                if concrete and zeros is None else None,
                tag_hasher(text) if tagged else None)

    symbols = cfg.initial_symbols if concrete else None
    chunks, length, hasher, tagger = restart(cfg.initial_symbols)
    t0, norm, cum_flops = start or (0, float(cfg.initial_norm), 0.0)
    norms_m, omega_m, events_m = map(memoryview, columns)
    steps = cfg.horizon
    for t, masked in enumerate(repeat(False, cfg.horizon - t0) if masked_a is None
                               else masked_a[t0:].tolist(), t0):
        prev, fresh, events = symbols, "", 0
        if gate is not None and _budget_tripped(cfg, norm, cum_flops):
            new_norm, omega, events = norm, 0.0, EVENT_BUDGET_FROZEN
        else:
            x = norm  # the norm the step adds to, after any WINDOWED cut
            if windowed and norm >= window:
                x = drop_to
                if concrete:
                    prev = "".join(chunks)
                    symbols = prev[length - keep:] if keep else ""
                    chunks, length, hasher, tagger = restart(symbols)
            if hasher:
                digest = hasher.digest() if growing else digest_of(symbols)
            if tagged:
                tag = (context_tag(length, x, tagger) if growing
                       else context_tag(symbols, x, tag_hasher(symbols)))
            m = ""
            if concrete and not masked:
                if keyed:
                    draw = keyed.copy()
                    draw.update(digest + t.to_bytes(8, "little") + b"\0\0\0\0")
                    noise = (table[draw.digest()[0]] if table else
                             format(int.from_bytes(draw.digest()[:nbytes], "big"), bits)[:n])
                else:
                    noise = zeros or noise_from_digest(digest, t, spec)
                m = (noise if identity else noise + tag if tagged
                     else apply_psi(noise, "", x, t, spec, False))
            mlen = len(m) if concrete else 0 if masked else psi_output_length(spec, x, t)
            omega = score(mlen) if score else measure.evaluate(Meaning(m))
            new_norm = float(mlen) if overwrite else x + grow(mlen, omega)
            if windowed and new_norm >= window:
                new_norm, events = window, events | EVENT_BURST_HIT_W
            if concrete and new_norm <= MAX_SYMBOLS:
                if overwrite:
                    symbols = m
                elif append:
                    fresh = m
                elif int(new_norm) > length:
                    fresh = tile(m, int(new_norm) - length)
        if gate is not None:
            cum_flops += flops_at(norm, cfg.cost_model)
        stop = not (new_norm <= MAX_SYMBOLS if concrete else math.isfinite(new_norm))
        if stop:
            events |= EVENT_OVERFLOW
        # The step took the context from ``prev`` to ``symbols`` + ``fresh``:
        # a growing one's ``symbols`` is ``prev`` unless a cut kept its tail.
        if can_stop and new_norm == norm and symbols + fresh == prev:
            events |= EVENT_FIXED_POINT
            stop = True
        if fresh:
            chunks.append(fresh)
            length += len(fresh)
            data = fresh.encode()
            for h in filter(None, (hasher, tagger)):
                h.update(data)
        norms_m[t + 1], omega_m[t], events_m[t] = new_norm, omega, events
        norm = new_norm
        if stop:
            steps = t + 1
            break
    return steps, "".join(chunks) if growing else symbols


@cache
def _one_byte_noise(n):
    """The noise of n <= 8 bits for each first byte of a keyed draw."""
    return tuple(format(byte, "08b")[:n] for byte in range(256))


@np.errstate(over="ignore")  # an overflow is flagged, as in the float loop
def _run_segments(cfg, masked_a, columns):
    """The segment path: an ABSTRACT run in stretches of one regime.

    Inside a segment the budget gate stays shut and the norm stays on one
    side of GATED's ``gamma_true``, so every meaning is empty (masked) or
    has one length L, and gain and increment take one of two values each.
    The norms are then a cumsum, which numpy accumulates left to right as
    the step loop adds; so is the compute spent, summed only for a budget
    gate. A segment ends after the last step of its regime; a non-finite
    norm ends the run (OVERFLOW), and an open budget gate freezes the rest
    of it. Writes and returns what `_run_steps` does for an ABSTRACT run.
    """
    norms, omega_a, events_a = columns
    horizon, spec, rule, gate = cfg.horizon, cfg.channel, cfg.update, cfg.budget
    windowed = rule.kind is UpdateKind.WINDOWED
    gated = spec.psi_kind is PsiKind.GATED
    omega_0 = cfg.measure.evaluate_length(0)
    norm, cum_flops = float(cfg.initial_norm), 0.0
    t, chunk, segments = 0, _CHUNK_MIN, 0

    while t < horizon:
        if segments > 8 and t < _SHORT_SEGMENT * segments:
            # The regime switches every few steps (an OVERWRITE gate flipping
            # on every mask, a gate inside each WINDOWED burst): one step
            # costs less than the numpy calls of a segment.
            return _run_steps(cfg, masked_a, columns, (t, norm, cum_flops))
        segments += 1
        if _budget_tripped(cfg, norm, cum_flops):
            # The gate never reopens: the norm stays put.
            norms[t + 1:], omega_a[t:], events_a[t:] = norm, 0.0, EVENT_BUDGET_FROZEN
            return horizon, None
        x0 = float(rule.drop_to) if windowed and norm >= rule.window else norm
        mlen = psi_output_length(spec, x0, t)
        omega_l = cfg.measure.evaluate_length(mlen)
        c = min(chunk, horizon - t)
        m = masked_a[t:t + c] if masked_a is not None else np.zeros(c, dtype=bool)
        # x: the norm each step adds to (after WINDOWED's drop); entry: the
        # norm before the step; new: the norm after it.
        if rule.kind is UpdateKind.OVERWRITE:
            new = np.where(m, 0.0, float(mlen))
        else:
            grow = _increment(rule)
            inc = np.where(m, grow(0, omega_0), grow(mlen, omega_l))
            if windowed:
                x, new, hit_w = _bursts(x0, inc, rule)
            else:
                new = np.cumsum(np.concatenate(([norm], inc)))[1:]
        entry = np.concatenate(([norm], new[:-1]))
        if not windowed:
            x = entry

        # Cut before the first step in another regime, after the first
        # non-finite norm.
        change = ((x <= spec.gamma_true) != (x0 <= spec.gamma_true) if gated
                  else np.zeros(len(new), dtype=bool))
        if gate is not None:
            cum = np.cumsum(np.concatenate(([cum_flops], flops_array(entry, cfg.cost_model))))
            change |= (entry > gate.max_norm) | (cum[:-1] > gate.max_flops)
        n = int(change.argmax()) if change.any() else len(new)
        overflow = ~np.isfinite(new[:n])
        stop = bool(overflow.any())
        if stop:
            n = int(overflow.argmax()) + 1

        norms[t + 1:t + n + 1] = new[:n]
        omega_a[t:t + n] = np.where(m[:n], omega_0, omega_l)
        if windowed:
            events_a[t:t + n][hit_w[:n]] = EVENT_BURST_HIT_W
        if stop:
            events_a[t + n - 1] |= EVENT_OVERFLOW
        if gate is not None:
            cum_flops = float(cum[n])
        norm, t = float(new[n - 1]), t + n
        if stop:
            return t, None
        chunk = min(max(2 * n, _CHUNK_MIN), _CHUNK_MAX)
    return horizon, None


def _bursts(x0, inc, rule):
    """WINDOWED steps over a chunk of increments, one burst after another.

    Row s of the burst table is a burst that starts at step s: ``drop_to``
    (``x0`` for s = 0) followed by the increments from step s on, summed
    along the row, so each entry is the step loop's own left-to-right sum. A
    burst ends at its first entry at or above the window, and the next one
    starts a step later. Rows are about twice the mean burst long, and a
    burst that outlasts its row ends the chunk there. When a burst is
    expected to outlast the chunk, the table is the one row from ``x0`` and
    the chunk ends at its first cap hit. Returns (x, new, hit_w) for the
    steps covered, as in `_run_segments`.
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
    return x, new, hit_w


def detect_fixed_point(traj: Trajectory) -> int | None:
    """The step a deterministic run stopped on, flagged FIXED_POINT, or None.

    Needs concrete symbols: state equality is undefined on a bare norm ledger.
    """
    if traj.config.mode is not Mode.CONCRETE:
        raise PreconditionError("fixed-point detection needs a CONCRETE run")
    return traj.steps - 1 if traj.events[-1] & EVENT_FIXED_POINT else None
