"""Per-step compute cost as a function of context size.

FULL attention costs alpha_attn * n^2 + alpha_ffn * n floating-point
operations for a context of n token-equivalent units. LOW_RANK replaces the
quadratic term with alpha_attn_r * r * n for a fixed rank r; LOG_RANK
recomputes the rank per step as ceil(log_coeff * log n), the regime where
cumulative compute stays polynomial while the context still diverges. That
regime's premise is log_coeff < delta*(1-eps)/gamma; any positive log_coeff
is still a legal run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class CostVariant(str, Enum):
    FULL = "FULL"
    LOW_RANK = "LOW_RANK"
    LOG_RANK = "LOG_RANK"


@dataclass(frozen=True)
class CostModel:
    """Scenario-supplied cost coefficients."""

    alpha_attn: float = 1.0
    alpha_ffn: float = 1.0
    variant: CostVariant = CostVariant.FULL
    rank: int = 1
    alpha_attn_r: float = 1.0
    log_coeff: float = 1.0

    def __post_init__(self) -> None:
        if not all(a > 0.0 for a in (self.alpha_attn, self.alpha_ffn, self.alpha_attn_r)):
            raise ValueError("cost coefficients must be strictly positive")
        if self.variant is CostVariant.LOW_RANK and self.rank < 1:
            raise ValueError("rank must be at least 1")
        if self.variant is CostVariant.LOG_RANK and not self.log_coeff > 0.0:
            raise ValueError("log_coeff must be positive")


def effective_rank(norm: float, model: CostModel) -> int:
    if model.variant is CostVariant.LOW_RANK:
        return model.rank
    if model.variant is CostVariant.LOG_RANK:
        return max(1, math.ceil(model.log_coeff * math.log(max(norm, 1.0))))
    raise ValueError("rank is only defined for low-rank variants")


def flops_at(norm: float, model: CostModel) -> float:
    """Instantaneous cost of one step on a context of the given size."""
    if norm < 0.0:
        raise ValueError("norm must be nonnegative")
    if norm == 0.0:
        return 0.0
    if model.variant is CostVariant.FULL:
        return model.alpha_attn * norm * norm + model.alpha_ffn * norm
    return model.alpha_attn_r * effective_rank(norm, model) * norm + model.alpha_ffn * norm


@np.errstate(over="ignore")  # inf, as flops_at's float arithmetic gives
def flops_array(norms, model: CostModel) -> np.ndarray:
    """flops_at over an array of nonnegative sizes, bit for bit.

    LOG_RANK stays per point: np.log may differ from math.log in the last ulp
    and move the rank's ceil.
    """
    x = np.asarray(norms, dtype=float)
    if model.variant is CostVariant.LOG_RANK:
        return np.array([flops_at(n, model) for n in x.tolist()], dtype=float)
    if model.variant is CostVariant.FULL:
        f = model.alpha_attn * x * x + model.alpha_ffn * x
    else:
        f = model.alpha_attn_r * model.rank * x + model.alpha_ffn * x
    return np.where(x == 0.0, 0.0, f)


@dataclass(frozen=True)
class ComputeReport:
    instantaneous: np.ndarray
    cumulative: np.ndarray
    slope: float


def cumulative_compute(
    norms, model: CostModel, fit_window: tuple[int, int] = (100, 10_000)
) -> ComputeReport:
    """Per-step and cumulative cost along a norm series, and the growth slope.

    ``norms`` is an array of per-step context sizes (a Trajectory's ``norms``
    attribute is used when present). ``slope`` is the least-squares slope of
    log flops(t), the per-step cost, against log t over the fit window: about
    2 for FULL attention on a linearly diverging context, about 1 for
    bounded-rank attention, and about 0 for frozen or capped runs.
    """
    series = np.asarray(getattr(norms, "norms", norms), dtype=float)
    inst = flops_array(np.maximum(series, 0.0), model)
    cum = np.cumsum(inst)

    lo, hi = fit_window
    t = np.arange(len(inst))
    window = (t >= max(lo, 1)) & (t <= hi) & (inst > 0.0)
    if window.sum() >= 2:
        slope = float(np.polyfit(np.log(t[window]), np.log(inst[window]), 1)[0])
    else:
        slope = 0.0
    return ComputeReport(inst, cum, slope)
