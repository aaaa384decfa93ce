"""Coupled feedback loops: broadcast gains, schedules, drift-matrix analysis.

Every agent produces and broadcasts a tagged meaning each tick; the schedule
only gates who updates. Under the declared-bonus measure with constant base
gains (STATIC mode) an active agent's increment is exactly
delta * (1 + mean bonus) * k * base, the sharp equality case of the
collective-gain bounds. RELAY mode instead re-broadcasts each agent's
previous realized increment as its base gain, which reproduces the
drift-matrix recursion increment(t) = D increment(t-1) in expectation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import derive_seed
from .columns import write_csv
from .engine.checks import five_se
from .engine.core import MAX_STEPS, PreconditionError
from .meanings import Meaning
from .measures import declared_gain


class Schedule(str, Enum):
    SYNCHRONOUS = "SYNCHRONOUS"
    BERNOULLI_ASYNC = "BERNOULLI_ASYNC"


class GainMode(str, Enum):
    STATIC = "STATIC"
    RELAY = "RELAY"


@dataclass(frozen=True)
class SwarmSpec:
    k: int
    beta: np.ndarray
    lam: np.ndarray
    schedule: Schedule = Schedule.SYNCHRONOUS
    base_gain: float = 1.0
    delta: float = 1.0
    gamma: float = 1.0
    gain_mode: GainMode = GainMode.STATIC

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("a swarm needs at least two agents")
        beta = np.asarray(self.beta, dtype=float)
        lam = np.asarray(self.lam, dtype=float)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "lam", lam)
        if beta.shape != (self.k, self.k):
            raise ValueError(f"beta must be {self.k}x{self.k}")
        if np.any(np.diag(beta) != 0.0):
            raise ValueError("beta must have a zero diagonal")
        if not (beta >= 0.0).all():
            raise ValueError("beta entries must be nonnegative")
        if lam.shape != (self.k,):
            raise ValueError(f"lam must have {self.k} entries")
        if not ((lam > 0.0) & (lam <= 1.0)).all():
            raise ValueError("activity rates must lie in (0, 1]")
        if not self.base_gain > 0.0:
            raise ValueError("base_gain must be positive")
        if not self.delta > 0.0:
            raise ValueError("delta must be positive")
        if not self.gamma > 0.0:
            raise ValueError("gamma must be positive")

    @property
    def mean_bonus(self) -> float:
        """Mean off-diagonal bonus (the averaged-complementarity factor)."""
        k = self.k
        return float(self.beta.sum() / (k * (k - 1)))

    @property
    def uniform_bonus(self) -> float | None:
        off = self.beta[~np.eye(self.k, dtype=bool)]
        return float(off[0]) if np.all(off == off[0]) else None

    def broadcast_gain(self) -> float:
        """Declared gain of the full k-fold broadcast at unit activity."""
        tags = [str(i) for i in range(self.k)]
        bases = {tag: self.base_gain for tag in tags}
        bonus = {
            (str(i), str(j)): float(self.beta[i, j])
            for i in range(self.k) for j in range(self.k) if i != j
        }
        meanings = [Meaning("", tag=tag) for tag in tags]
        return declared_gain(meanings, bases, bonus)


def activity_matrix(spec: SwarmSpec, horizon: int, seed: int) -> np.ndarray:
    """Boolean (horizon, k) update-participation draws."""
    if spec.schedule is Schedule.SYNCHRONOUS:
        return np.ones((horizon, spec.k), dtype=bool)
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "activity")))
    return rng.random((horizon, spec.k)) < spec.lam


@dataclass
class SwarmTrajectory:
    spec: SwarmSpec
    seed: int
    norm: np.ndarray          # (k, steps + 1) state norms
    delta: np.ndarray         # (k, steps) per-agent increments
    active: np.ndarray        # (k, steps) participation
    overflow_tick: int | None = None  # the last tick, if its norms are not finite

    @property
    def steps(self) -> int:
        return self.delta.shape[1]

    @property
    def collective(self) -> np.ndarray:
        """Per-step collective increment (sum over agents)."""
        return self.delta.sum(axis=0)

    def first_crossing(self, level: float) -> int | None:
        above = np.nonzero((self.norm > level).any(axis=0))[0]
        return int(above[0]) if len(above) else None

    def write_agent_csv(self, agent: int, out) -> None:
        delta = self.delta[agent]
        write_csv(out, "t,norm,omega,delta,active",
                  [self.norm[agent, :-1], delta / self.spec.delta, delta],
                  self.active[agent].astype(np.uint8), ("0", "1"))

    def write_collective_csv(self, out) -> None:
        write_csv(out, "t,sum_delta,active_count", [self.collective],
                  self.active.sum(axis=0), [str(n) for n in range(self.spec.k + 1)])


def check_horizon(spec: SwarmSpec, horizon: int) -> None:
    """Refuse a horizon below one tick, or above `MAX_STEPS` agent-ticks."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if spec.k * horizon > MAX_STEPS:
        raise ValueError(f"k * horizon must be at most {MAX_STEPS} agent-ticks")


def run_swarm(spec: SwarmSpec, horizon: int, seed: int = 0) -> SwarmTrajectory:
    """Iterate the broadcast coupling. The run stops after the first tick
    whose norms are not finite, and names it as ``overflow_tick``."""
    check_horizon(spec, horizon)
    k = spec.k
    active = activity_matrix(spec, horizon, seed)
    norm = np.zeros((k, horizon + 1))
    delta = np.zeros((k, horizon))

    with np.errstate(over="ignore", invalid="ignore"):
        if spec.gain_mode is GainMode.STATIC:
            # accumulate adds left to right, so this equals the per-tick sums.
            delta[:] = np.where(active.T, spec.delta * spec.broadcast_gain(), 0.0)
            np.cumsum(delta, axis=1, out=norm[:, 1:])
        else:
            one_plus = 1.0 + spec.beta
            np.fill_diagonal(one_plus, 0.0)
            bases = np.full(k, spec.base_gain)
            for t in range(horizon):
                gains = one_plus @ bases
                inc = np.where(active[t], spec.delta * gains, 0.0)
                delta[:, t] = inc
                norm[:, t + 1] = norm[:, t] + inc
                bases = inc
                # inf and nan persist, so a check every 64 ticks stops a runaway
                if t % 64 == 63 and not np.isfinite(norm[:, t + 1]).all():
                    break
    finite = np.isfinite(norm[:, 1:]).all(axis=0)
    n = horizon if finite.all() else int(finite.argmin()) + 1
    return SwarmTrajectory(spec=spec, seed=seed, norm=norm[:, :n + 1], delta=delta[:, :n],
                           active=active[:n].T, overflow_tick=None if finite.all() else n - 1)


@dataclass(frozen=True)
class AgentGainCheck:
    mean_delta: float
    bound: float
    ok: bool


@dataclass(frozen=True)
class CollectiveGainReport:
    bonus_factor: float
    uniform: bool
    per_agent: tuple[AgentGainCheck, ...]
    collective_mean: float
    collective_bound: float
    collective_ok: bool

    @property
    def passed(self) -> bool:
        return self.collective_ok and all(a.ok for a in self.per_agent)


def check_collective_gain(traj: SwarmTrajectory) -> CollectiveGainReport:
    """One-sided comparison of observed increments against the swarm bounds.

    Uniform-bonus runs are held to (1 + beta) * k * solo (scaled by the
    activity rate under the Bernoulli schedule); non-uniform runs to the
    averaged-bonus form. solo = delta * base_gain is the increment of an
    agent that updates every tick on its own meaning alone. Each comparison
    allows five standard errors of Monte-Carlo slack. A run that overflowed
    has no mean to compare, and a RELAY agent's gain sums only the others'
    previous increments, which the broadcast bound does not describe.
    """
    spec = traj.spec
    if traj.overflow_tick is not None:
        raise PreconditionError(f"the swarm norms overflowed at tick {traj.overflow_tick}")
    if spec.gain_mode is not GainMode.STATIC:
        raise PreconditionError(
            "the broadcast bound (1 + beta)·k·solo holds for STATIC gains only")
    uniform = spec.uniform_bonus
    factor_bonus = uniform if uniform is not None else spec.mean_bonus
    solo_mean = spec.delta * spec.base_gain
    async_mode = spec.schedule is Schedule.BERNOULLI_ASYNC

    checks = []
    bounds_sum = 0.0
    for i in range(spec.k):
        rate = float(spec.lam[i]) if async_mode else 1.0
        bound = rate * (1.0 + factor_bonus) * spec.k * solo_mean
        mean = float(traj.delta[i].mean())
        ok = mean >= bound - max(five_se(traj.delta[i]), 1e-9)
        checks.append(AgentGainCheck(mean, bound, ok))
        bounds_sum += bound

    collective = traj.collective
    collective_mean = float(collective.mean())
    collective_ok = collective_mean >= bounds_sum - max(five_se(collective), 1e-9)

    return CollectiveGainReport(
        bonus_factor=factor_bonus, uniform=uniform is not None,
        per_agent=tuple(checks), collective_mean=collective_mean,
        collective_bound=bounds_sum, collective_ok=bool(collective_ok),
    )


def build_drift_matrix(spec: SwarmSpec) -> np.ndarray:
    """Entries lam_i * (1 + beta_ij) off the diagonal, zero on it."""
    entries = spec.lam[:, None] * (1.0 + spec.beta)
    np.fill_diagonal(entries, 0.0)
    return entries


def spectral_radius(matrix: np.ndarray) -> float:
    """Dominant-eigenvalue magnitude of a nonnegative matrix.

    numpy's eigensolver gives it to rounding; by Perron-Frobenius it lies
    between the smallest and the largest row sum, so it is clamped there, and
    a matrix whose rows all sum to s gets exactly s.
    """
    entries = np.asarray(matrix, dtype=float)
    if np.any(entries < 0.0):
        raise ValueError("the drift matrix must be nonnegative")
    rows = entries.sum(axis=1)
    rho = float(np.abs(np.linalg.eigvals(entries)).max())
    return min(max(rho, float(rows.min())), float(rows.max()))


@dataclass(frozen=True)
class DivergenceReport:
    rho: float
    crossed: bool
    crossing_step: int | None
    slope: float | None
    growth_ok: bool | None

    @property
    def flagged_divergent(self) -> bool:
        return self.rho > 1.0 and self.crossed


# How far the fitted log-growth rate may fall below log(rho) and still pass.
_SLOPE_SLACK = 0.05


def predict_and_verify_divergence(spec: SwarmSpec, horizon: int,
                                  seed: int = 0) -> DivergenceReport:
    """Compare a swarm run against its drift-matrix prediction.

    For spectral radius above one the report checks that the increment-vector
    norm grows at least geometrically at that rate (log-linear fit over the
    ticks before any overflow, one sided); at or below one it only reports
    what happened, since no growth guarantee applies there.
    """
    rho = spectral_radius(build_drift_matrix(spec))
    traj = run_swarm(spec, horizon, seed)
    crossing = traj.first_crossing(spec.gamma)

    deltas = traj.delta[:, :traj.overflow_tick]
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(deltas, axis=0)
    if not np.isfinite(norms).all():  # the squares overflowed: rescale first
        peak = np.abs(deltas).max(axis=0, initial=np.finfo(float).tiny)
        norms = peak * np.linalg.norm(deltas / peak, axis=0)
    positive = norms > 0.0
    slope = None
    growth_ok = None
    if positive.sum() >= 2:
        t = np.arange(len(norms))[positive]
        slope = float(np.polyfit(t, np.log(norms[positive]), 1)[0])
        if rho > 1.0:
            growth_ok = slope >= math.log(rho) - _SLOPE_SLACK
    return DivergenceReport(rho=rho, crossed=crossing is not None,
                            crossing_step=crossing, slope=slope, growth_ok=growth_ok)
