"""Trajectory verifiers: drift, boundedness, threshold estimation, bursts.

Verdicts distinguish exact per-step inequalities (checked with zero
tolerance) from Monte-Carlo mean bounds (checked within five standard
errors). Violations are returned in reports, not raised.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ..channel import ChannelSpec, PsiKind, apply_psi, context_tag, derive_seed
from ..meanings import Meaning, random_bits
from ..measures import MeasureSpec, length_measure
from .core import (
    EVENT_BUDGET_FROZEN,
    EVENT_BURST_HIT_W,
    EVENT_MASKED,
    EVENT_OVERFLOW,
    Trajectory,
    UpdateKind,
)


class NoCrossingError(RuntimeError):
    """The trajectory never crossed the required level."""


class PreconditionError(RuntimeError):
    """The trajectory does not satisfy the verifier's premise."""


class RuleMismatchError(RuntimeError):
    """The trajectory was produced under an incompatible update rule."""


class BracketError(ValueError):
    """Invalid search bracket."""


@dataclass(frozen=True)
class DriftReport:
    t0: int
    per_step_ok: bool
    min_margin: float
    cumulative_ok: bool
    mean_drift: float
    mean_bound: float
    mean_ok: bool
    overflow_step: int | None = None

    @property
    def passed(self) -> bool:
        return self.per_step_ok and self.cumulative_ok and self.mean_ok


def verify_drift(traj: Trajectory, delta: float, gamma: float,
                 eps: float = 0.0) -> DriftReport:
    """Check the post-crossing growth guarantees of a gated run.

    Per-step: every unmasked, unfrozen step at or after the first crossing
    must add at least delta * gamma, with zero tolerance. Cumulative: the
    norm k steps past the crossing must have grown by at least k * delta *
    gamma (only meaningful when nothing was masked). Mean: the average
    increment must reach delta * (1 - eps) * gamma within five standard
    errors of the observed increments. A run flagged OVERFLOW is judged on
    the steps before ``overflow_step``, its last.
    """
    overflow_step = traj.steps - 1 if traj.events[-1] & EVENT_OVERFLOW else None
    end = traj.steps if overflow_step is None else overflow_step
    t0 = traj.first_crossing(gamma)
    if t0 is None or t0 > end:
        raise NoCrossingError(f"norm never exceeded {gamma!r}")
    norms = traj.norms[:end + 1]
    deltas, events = traj.delta[t0:end], traj.events[t0:end]
    masked = (events & EVENT_MASKED) != 0
    frozen = (events & EVENT_BUDGET_FROZEN) != 0

    floor = delta * gamma
    margins = deltas[~(masked | frozen)] - floor
    per_step_ok = not (margins < 0.0).any()
    min_margin = float(margins.min()) if len(margins) else math.inf

    if masked.any() or frozen.any():
        cumulative_ok = per_step_ok
    else:
        k = np.arange(len(norms) - t0)
        cumulative_ok = bool(np.all(norms[t0:] >= norms[t0] + k * floor))

    usable = deltas[~frozen]
    mean_drift = float(usable.mean()) if len(usable) else 0.0
    mean_bound = delta * (1.0 - eps) * gamma
    mean_ok = mean_drift >= mean_bound - five_se(usable)

    return DriftReport(
        t0=t0, per_step_ok=per_step_ok, min_margin=min_margin,
        cumulative_ok=bool(cumulative_ok), mean_drift=mean_drift,
        mean_bound=mean_bound, mean_ok=bool(mean_ok), overflow_step=overflow_step,
    )


def five_se(x: np.ndarray) -> float:
    """Five standard errors of the mean of x, the slack of every Monte-Carlo
    mean bound; 0 below two samples."""
    return 5.0 * (_std(x) / math.sqrt(len(x))) if len(x) > 1 else 0.0


def _std(x: np.ndarray) -> float:
    """Sample standard deviation, scaled first if the squares overflow."""
    with np.errstate(over="ignore"):
        std = float(x.std(ddof=1))
    peak = float(np.abs(x).max())
    return std if math.isfinite(std) else peak * float((x / peak).std(ddof=1))


@dataclass(frozen=True)
class BoundedReport:
    max_norm: float
    lyapunov_max: float

    @property
    def passed(self) -> bool:
        return self.lyapunov_max == 0.0


def verify_bounded(traj: Trajectory, gamma: float) -> BoundedReport:
    """Check that a sub-threshold start never escapes the threshold.

    The Lyapunov candidate max(0, norm - gamma) must be identically zero.
    """
    norms = traj.norms
    if norms[0] > gamma:
        raise PreconditionError(
            f"initial norm {norms[0]!r} exceeds the threshold {gamma!r}")
    max_norm = float(norms.max())
    return BoundedReport(max_norm=max_norm, lyapunov_max=max(0.0, max_norm - gamma))


@dataclass(frozen=True)
class GammaStarEstimate:
    value: float
    resolution: float
    iterations: int


def estimate_gamma_star(
    channel: ChannelSpec,
    lo: float,
    hi: float,
    iterations: int = 20,
    mc_samples: int = 32,
    seed: int = 0,
    measure: MeasureSpec | None = None,
) -> GammaStarEstimate:
    """Bisect for the smallest context size above which every emission gains.

    Each probe x draws contexts with norms in [x, x + span] (always including
    x itself), applies the channel valve-free, and asks whether the smallest
    observed gain is strictly positive. The estimate carries its bisection
    resolution (hi - lo) / 2**iterations.
    """
    if not 0.0 < lo < hi:
        raise BracketError(f"need 0 < lo < hi, got [{lo!r}, {hi!r}]")
    if iterations < 1 or mc_samples < 1:
        raise BracketError("iterations and mc_samples must be positive")
    measure = measure or length_measure()
    rng = np.random.default_rng(derive_seed(seed, "gamma-star"))
    span = (hi - lo) / 4.0

    def gain_at(norm: float) -> float:
        noise = random_bits(rng, channel.noise_len)
        tag = context_tag("", norm, None) if channel.psi_kind is PsiKind.TAGGED_INJECTIVE else ""
        return measure.evaluate(Meaning(apply_psi(noise, tag, norm, 0, channel, False)))

    def always_gains(x: float) -> bool:
        norms = [x] + list(x + rng.uniform(0.0, span, size=mc_samples - 1))
        return all(gain_at(n) > 0.0 for n in norms)

    a, b = lo, hi
    for _ in range(iterations):
        mid = 0.5 * (a + b)
        if always_gains(mid):
            b = mid
        else:
            a = mid
    return GammaStarEstimate(
        value=0.5 * (a + b),
        resolution=(hi - lo) / 2.0**iterations,
        iterations=iterations,
    )


def divergence_time_bound(t_star: int, norm_at_star: float, target: float,
                          delta: float, eps: float, gamma: float) -> int:
    """Latest step by which a gated run must cross the target level.

    t_star is the first index whose norm exceeds the threshold; from there
    every step adds at least delta * (1 - eps) * gamma in expectation, so the
    target is reached within ceil((target - norm) / that drift) more steps.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    if delta <= 0.0 or gamma <= 0.0:
        raise ValueError("delta and gamma must be positive")
    if target <= norm_at_star:
        raise ValueError("target must exceed the norm at the crossing step")
    drift = delta * (1.0 - eps) * gamma
    return t_star + math.ceil((target - norm_at_star) / drift)


@dataclass(frozen=True)
class BurstReport:
    bursts: int
    max_norm: float
    gaps: tuple[int, ...]
    gap_bound: int | None
    max_norm_ok: bool
    gaps_ok: bool

    @property
    def passed(self) -> bool:
        return self.max_norm_ok and self.gaps_ok


def burst_stats(traj: Trajectory, window: int) -> BurstReport:
    """Burst census of a window-capped run.

    A burst is a step that lifts the norm to exactly the cap from below. On
    gated runs the gap between consecutive bursts must stay within
    ceil((W - drop_to) / (delta * (1 - eps0) * gamma)).
    """
    rule = traj.config.update
    if rule.kind is not UpdateKind.WINDOWED or rule.window != window:
        raise RuleMismatchError("trajectory was not produced under this window cap")

    burst_steps = np.nonzero((traj.events & EVENT_BURST_HIT_W) != 0)[0]
    gaps = tuple(int(g) for g in np.diff(burst_steps))
    max_norm = float(traj.norms.max())

    gap_bound = None
    gaps_ok = True
    channel = traj.config.channel
    if channel.psi_kind is PsiKind.GATED:
        eps0 = channel.mask_rate.eps0
        drift = rule.delta * (1.0 - eps0) * traj.config.gamma
        gap_bound = math.ceil((window - rule.drop_to) / drift)
        gaps_ok = all(g <= gap_bound for g in gaps)

    return BurstReport(
        bursts=int(len(burst_steps)), max_norm=max_norm,
        gaps=gaps, gap_bound=gap_bound,
        max_norm_ok=max_norm <= window, gaps_ok=gaps_ok,
    )


def sublinear_growth_report(traj: Trajectory, t_lo: int, t_hi: int) -> dict:
    """Ratio test for sub-linear growth over [t_lo, t_hi] (report, no verdict).

    Growth is called sub-linear when the norm grows by a smaller factor than
    the window endpoints (ratio below t_hi / t_lo).
    """
    norms = traj.norms
    if not 0 < t_lo < t_hi < len(norms):
        raise ValueError("need 0 < t_lo < t_hi within the trajectory")
    norm_lo = float(norms[t_lo])
    norm_hi = float(norms[t_hi])
    ratio = norm_hi / norm_lo if norm_lo > 0.0 else math.inf
    window_factor = t_hi / t_lo
    return {
        "t_lo": t_lo,
        "t_hi": t_hi,
        "norm_lo": norm_lo,
        "norm_hi": norm_hi,
        "ratio": ratio,
        "window_factor": window_factor,
        "sublinear": ratio < window_factor,
    }


def epsilon_star(delta: float, gamma: float, omega_sup: float) -> float:
    """Masking rate above which drift can no longer sustain divergence.

    1 - delta * gamma / (2 * omega_sup), clamped at zero (with a warning)
    when the drift term already dominates the gain ceiling.
    """
    if delta <= 0.0 or gamma <= 0.0 or omega_sup <= 0.0:
        raise ValueError("delta, gamma and omega_sup must be positive")
    value = 1.0 - (delta * gamma) / (2.0 * omega_sup)
    if value < 0.0:
        warnings.warn("delta * gamma exceeds twice the gain ceiling; "
                      "collapse threshold clamped to 0", stacklevel=2)
        return 0.0
    return value
