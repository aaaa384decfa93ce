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

from ..channel import ChannelSpec, Draws, PsiKind, derive_seed, psi_output_length
from .core import (
    EVENT_BUDGET_FROZEN,
    EVENT_BURST_HIT_W,
    EVENT_MASKED,
    EVENT_OVERFLOW,
    MAX_STEPS,
    PreconditionError,
    RunConfig,
    Trajectory,
    UpdateKind,
)


def drift_bounds(cfg: RunConfig) -> tuple[float, float]:
    """What a step above gamma adds: at least the floor delta * gamma unless
    masked or frozen, and delta * (1 - eps) * gamma in the mean, eps the mask
    rate at t = 1. A floor that is not finite is refused; the mean is no larger."""
    delta, gamma, eps = cfg.update.delta, cfg.gamma, cfg.channel.mask_rate.entry_rate
    floor = delta * gamma
    if not math.isfinite(floor):
        raise PreconditionError(f"drift floor delta * gamma = {floor!r} is not finite")
    return floor, delta * (1.0 - eps) * gamma


def adding_steps(traj: Trajectory) -> np.ndarray:
    """Which steps add to the norm: those neither MASKED nor BUDGET_FROZEN.
    Above gamma each of them adds at least the floor of `drift_bounds`."""
    return (traj.events & (EVENT_MASKED | EVENT_BUDGET_FROZEN)) == 0


def crossing_step(traj: Trajectory, end: float = math.inf) -> int:
    """The first state index above the run's gamma, refused past ``end``."""
    t0 = traj.first_crossing(traj.config.gamma)
    if t0 is None or t0 > end:
        raise PreconditionError(f"norm never exceeded {traj.config.gamma!r}")
    return t0


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


def verify_drift(traj: Trajectory) -> DriftReport:
    """Check the post-crossing growth guarantees of a gated run.

    Per-step: every unmasked, unfrozen step at or after the first crossing
    must add at least the floor of `drift_bounds`, with zero tolerance.
    Cumulative: the norm k steps past the crossing must have grown by at
    least k floors (only meaningful when nothing was masked). Mean: the
    average increment must reach the mean bound within five standard errors
    of the observed increments. A run flagged OVERFLOW is judged on the
    steps before ``overflow_step``, its last.
    """
    floor, mean_bound = drift_bounds(traj.config)
    overflow_step = traj.steps - 1 if traj.events[-1] & EVENT_OVERFLOW else None
    end = traj.steps if overflow_step is None else overflow_step
    t0 = crossing_step(traj, end)
    norms = traj.norms[:end + 1]
    deltas, adding = traj.delta[t0:end], adding_steps(traj)[t0:end]
    frozen = (traj.events[t0:end] & EVENT_BUDGET_FROZEN) != 0

    margins = deltas[adding] - floor
    per_step_ok = not (margins < 0.0).any()
    min_margin = float(margins.min()) if len(margins) else math.inf

    if not adding.all():
        cumulative_ok = per_step_ok
    else:
        k = np.arange(len(norms) - t0)
        with np.errstate(over="ignore"):  # a bound past the largest float is not met
            cumulative_ok = bool(np.all(norms[t0:] >= norms[t0] + k * floor))

    usable = deltas[~frozen]
    mean_drift = float(usable.mean()) if len(usable) else 0.0
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


def verify_bounded(traj: Trajectory) -> BoundedReport:
    """Check that a sub-threshold start never escapes the run's threshold.

    The Lyapunov candidate max(0, norm - gamma) must be identically zero.
    """
    norms, gamma = traj.norms, traj.config.gamma
    if norms[0] > gamma:
        raise PreconditionError(
            f"initial norm {float(norms[0])!r} exceeds the threshold {gamma!r}")
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
) -> GammaStarEstimate:
    """Bisect for the smallest context size above which every emission gains.

    Each probe x draws contexts with norms in [x, x + span] (always including
    x itself) and asks whether the smallest observed gain, the valve-free
    meaning length, is strictly positive. Each sample draws its noise bits,
    which the length ignores, as a sampler of meanings would. The estimate
    carries its bisection resolution (hi - lo) / 2**iterations.
    """
    if not 0.0 < lo < hi:
        raise ValueError(f"need 0 < lo < hi, got [{lo!r}, {hi!r}]")
    if not (1 <= iterations <= MAX_STEPS and 1 <= mc_samples <= MAX_STEPS):
        raise ValueError(f"iterations and mc_samples must lie in [1, {MAX_STEPS}]")
    draws = Draws(derive_seed(seed, "gamma-star"))
    span = (hi - lo) / 4.0

    def gain_at(norm: float) -> float:
        draws.bits(channel.noise_len)
        return float(psi_output_length(channel, norm, 0))

    def always_gains(x: float) -> bool:
        norms = [x] + [x + span * draws.random() for _ in range(mc_samples - 1)]
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
                          drift: float) -> int:
    """Latest step by which a gated run must cross the target level, if
    every step from t_star on adds to the norm.

    t_star is the first index whose norm exceeds the threshold; from there
    every step that adds (`adding_steps`) adds at least ``drift``, the floor
    of `drift_bounds`, so the target is reached within
    ceil((target - norm) / drift) adding steps: a count that must be finite.
    """
    if not drift > 0.0:
        raise ValueError("drift must be positive")
    if not norm_at_star < target < math.inf:
        raise ValueError("target must be finite and exceed the norm at the crossing step")
    if not (steps := (target - norm_at_star) / drift) < math.inf:
        raise ValueError(f"(target - norm) / drift = {steps!r} steps is not finite")
    return t_star + math.ceil(steps)


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


def burst_stats(traj: Trajectory) -> BurstReport:
    """Burst census of a window-capped run, under the run's own window W.

    A burst is a step that lifts the norm to exactly the cap from below. A
    gap between consecutive bursts counts the steps that add to the norm,
    neither MASKED nor BUDGET_FROZEN; on gated runs each of those adds at
    least the floor of `drift_bounds`, so a gap must stay within
    ceil((W - drop_to) / (delta * gamma)).
    """
    rule = traj.config.update
    if rule.kind is not UpdateKind.WINDOWED:
        raise PreconditionError("trajectory was not produced under a window cap")

    burst_steps = np.nonzero((traj.events & EVENT_BURST_HIT_W) != 0)[0]
    adding = np.cumsum(adding_steps(traj))
    gaps = tuple(int(g) for g in np.diff(adding[burst_steps]))
    max_norm = float(traj.norms.max())

    gap_bound = None
    gaps_ok = True
    if traj.config.channel.psi_kind is PsiKind.GATED:
        floor, _ = drift_bounds(traj.config)
        gap_bound = math.ceil((rule.window - rule.drop_to) / floor)
        gaps_ok = all(g <= gap_bound for g in gaps)

    return BurstReport(
        bursts=int(len(burst_steps)), max_norm=max_norm,
        gaps=gaps, gap_bound=gap_bound,
        max_norm_ok=max_norm <= rule.window, gaps_ok=gaps_ok,
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
    if not (delta > 0.0 and gamma > 0.0 and omega_sup > 0.0):
        raise ValueError("delta, gamma and omega_sup must be positive")
    value = 1.0 - (delta * gamma) / (2.0 * omega_sup)
    if value < 0.0:
        warnings.warn("delta * gamma exceeds twice the gain ceiling; "
                      "collapse threshold clamped to 0", stacklevel=2)
        return 0.0
    return value
