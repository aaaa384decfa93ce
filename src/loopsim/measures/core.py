"""Information-gain measures over symbol sequences.

Every measure maps a Meaning to a nonnegative real, deterministically.
`symmetrised_kl` is the one exception: it scores pairs of finite discrete
distributions, is a standalone function, and has no MeasureSpec kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from ..meanings import Meaning
from .lz78 import lz78_coded_bits, lz78_pair_bits
from .lz78 import lz78_parse  # noqa: F401 (perfbench/spans.py patches it)


class SupportMismatchError(ValueError):
    """The two distributions are not mutually absolutely continuous."""


class UnknownTagError(KeyError):
    """A declared-bonus evaluation met a meaning without a known tag."""


class MeasureKind(str, Enum):
    LENGTH = "LENGTH"
    COMPRESSION_GAIN = "COMPRESSION_GAIN"
    POWER_LAW = "POWER_LAW"
    FISHER = "FISHER"
    DECLARED_BONUS = "DECLARED_BONUS"


def compression_gain(m: Meaning) -> float:
    """Length in bits (one a symbol) minus LZ78 coded bits, clamped at zero."""
    return float(max(0, len(m) - lz78_coded_bits(m)))


def unit_floor_gain(m: Meaning) -> float:
    """compression_gain with a floor of 1 on non-empty input.

    Opt-in wrapper for scenarios that need every non-empty emission to score
    at least one bit; short or incompressible strings otherwise score 0.
    """
    if m.is_empty:
        return 0.0
    return max(1.0, compression_gain(m))


def fisher_gain(m: Meaning, theta0: float) -> float:
    """Squared score norm of an i.i.d. Bernoulli(theta) model, evaluated at theta0.

    Each '1' contributes 1/theta0 to the score, each '0' contributes
    -1/(1-theta0); the result is the square of the summed score. Scores of
    opposite sign cancel, so this measure is deliberately not super-additive.
    """
    score = _fisher_score(m.symbols, theta0)
    return score * score


def _fisher_score(symbols: str, theta0: float, score: float = 0.0) -> float:
    """The summed score of `fisher_gain`, carried on over symbols from `score`."""
    if not 0.0 < theta0 < 1.0:
        raise ValueError("theta0 must lie in (0, 1)")
    up = 1.0 / theta0
    down = 1.0 / (1.0 - theta0)
    for ch in symbols:
        if ch == "1":
            score += up
        elif ch == "0":
            score -= down
        else:
            raise ValueError(f"fisher gain needs binary symbols, got {ch!r}")
    return score


def symmetrised_kl(p: Mapping[object, float], q: Mapping[object, float]) -> float:
    """0.5 * [KL(p||q) + KL(q||p)] in nats for finite discrete distributions.

    Raises SupportMismatchError when the supports differ (the divergence would
    be infinite); measures stay real-valued by contract.
    """
    _check_distribution(p)
    _check_distribution(q)
    support_p = {x for x, w in p.items() if w > 0.0}
    support_q = {x for x, w in q.items() if w > 0.0}
    if support_p != support_q:
        raise SupportMismatchError("distributions must share their support")
    total = 0.0
    for x in support_p:
        px, qx = p[x], q[x]
        total += 0.5 * (px * math.log(px / qx) + qx * math.log(qx / px))
    return max(0.0, total)


def _check_distribution(dist: Mapping[object, float]) -> None:
    if not dist:
        raise ValueError("empty distribution")
    weight = 0.0
    for w in dist.values():
        if w < 0.0:
            raise ValueError("negative probability")
        weight += w
    if abs(weight - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {weight!r}, not 1")


def declared_gain(
    meanings: Meaning | Sequence[Meaning],
    bases: Mapping[str, float],
    bonus: Mapping[tuple[str, str], float] | None = None,
) -> float:
    """Gain of tagged meanings under a declared bonus table.

    A single meaning scores its declared base gain. A concatenation of k >= 2
    tagged meanings scores (1 + b) * sum of bases, where b is the mean bonus
    over all ordered pairs of distinct tags present. For a pair with a
    symmetric table this is exactly (1 + beta_ij) * (base_i + base_j).
    Untagged empty meanings encode the null message and contribute nothing.
    """
    if isinstance(meanings, Meaning):
        meanings = [meanings]
    meanings = [m for m in meanings if not (m.tag is None and m.is_empty)]
    if not meanings:
        return 0.0
    bonus = bonus or {}
    for pair, value in bonus.items():
        if value < 0.0:
            raise ValueError(f"bonus for {pair} must be nonnegative")
    tags = []
    base_sum = 0.0
    for m in meanings:
        if m.tag is None or m.tag not in bases:
            raise UnknownTagError(m.tag)
        tags.append(m.tag)
        base_sum += bases[m.tag]
    if len(tags) == 1:
        return base_sum
    pair_bonuses = [
        bonus.get((a, b), 0.0) for a in tags for b in tags if a != b
    ]
    mean_bonus = sum(pair_bonuses) / len(pair_bonuses) if pair_bonuses else 0.0
    return (1.0 + mean_bonus) * base_sum


@dataclass(frozen=True)
class MeasureSpec:
    """A pluggable gain measure with its declared Lipschitz constant.

    ``lipschitz_bound`` is None when unknown; the audit then reports worst
    observed ratios instead of counting violations. A POWER_LAW exponent
    must exceed 1, a FISHER ``theta0`` lie in (0, 1), and a DECLARED_BONUS
    needs its ``bases``: all are checked here, once, so a missing or NaN one
    is refused at construction.
    """

    kind: MeasureKind
    exponent: float | None = None
    theta0: float | None = None
    bases: Mapping[str, float] | None = None
    bonus: Mapping[tuple[str, str], float] | None = None
    lipschitz_bound: float | None = None

    def __post_init__(self) -> None:
        if self.kind is MeasureKind.POWER_LAW and not (self.exponent or 0.0) > 1.0:
            raise ValueError("power-law exponent must exceed 1")
        if self.kind is MeasureKind.FISHER and not 0.0 < (self.theta0 or 0.0) < 1.0:
            raise ValueError("theta0 must lie in (0, 1)")
        if self.kind is MeasureKind.DECLARED_BONUS and self.bases is None:
            raise ValueError("a DECLARED_BONUS measure needs bases")

    def evaluate(self, m: Meaning) -> float:
        """Gain of one meaning: a length kind scores `evaluate_length(len(m))`."""
        if self.kind is MeasureKind.COMPRESSION_GAIN:
            return compression_gain(m)
        if self.kind is MeasureKind.FISHER:
            return fisher_gain(m, self.theta0)
        if self.kind is MeasureKind.DECLARED_BONUS:
            return declared_gain(m, self.bases, self.bonus)
        return self.evaluate_length(len(m))

    def score_pair(self, m1: Meaning, m2: Meaning) -> tuple[float, float, float, float]:
        """The gains of m1, of m2, of m1 || m2 and of m1 || "" (tag-aware for
        declared bonus), each equal to `evaluate` of that meaning. A length
        kind scores the lengths; FISHER and COMPRESSION_GAIN carry the score
        or the LZ78 walk over m1 on over m2 for the join."""
        if self.kind is MeasureKind.COMPRESSION_GAIN:
            bits1, bits2, joined = lz78_pair_bits(m1.symbols, m2.symbols)
            n1, n2 = len(m1.symbols), len(m2.symbols)
            v1 = float(max(0, n1 - bits1))
            return v1, float(max(0, n2 - bits2)), float(max(0, n1 + n2 - joined)), v1
        if self.kind is MeasureKind.FISHER:
            s1 = _fisher_score(m1.symbols, self.theta0)
            s2 = _fisher_score(m2.symbols, self.theta0)
            joined = _fisher_score(m2.symbols, self.theta0, s1)
            return s1 * s1, s2 * s2, joined * joined, s1 * s1
        if self.kind is MeasureKind.DECLARED_BONUS:
            return (self.evaluate(m1), self.evaluate(m2),
                    declared_gain([m1, m2], self.bases, self.bonus),
                    declared_gain([m1, Meaning("")], self.bases, self.bonus))
        n1, n2 = len(m1.symbols), len(m2.symbols)
        v1 = self.evaluate_length(n1)
        return v1, self.evaluate_length(n2), self.evaluate_length(n1 + n2), v1

    def evaluate_length(self, n: float) -> float:
        """Arithmetic evaluation from a meaning length alone.

        Only length-based kinds support this; it is what ABSTRACT-mode runs
        use instead of materialising symbols.
        """
        if self.kind is MeasureKind.LENGTH:
            return float(n)
        if self.kind is MeasureKind.POWER_LAW:
            try:
                return float(n) ** self.exponent
            except OverflowError:  # past the largest float: the run flags OVERFLOW
                return math.inf
        raise ValueError(f"{self.kind.value} needs symbols, not just a length")

    @property
    def length_arithmetic(self) -> bool:
        return self.kind in (MeasureKind.LENGTH, MeasureKind.POWER_LAW)


def length_measure() -> MeasureSpec:
    return MeasureSpec(MeasureKind.LENGTH, lipschitz_bound=1.0)


def compression_gain_measure() -> MeasureSpec:
    return MeasureSpec(MeasureKind.COMPRESSION_GAIN, lipschitz_bound=1.0)


def power_measure(exponent: float = 2.0) -> MeasureSpec:
    return MeasureSpec(MeasureKind.POWER_LAW, exponent=exponent)


def fisher_measure(theta0: float = 0.5) -> MeasureSpec:
    return MeasureSpec(MeasureKind.FISHER, theta0=theta0)


def declared_measure(
    bases: Mapping[str, float],
    bonus: Mapping[tuple[str, str], float] | None = None,
) -> MeasureSpec:
    return MeasureSpec(MeasureKind.DECLARED_BONUS, bases=dict(bases), bonus=dict(bonus or {}))
