"""Empirical audit of the measure axioms.

Checked per sampled meaning or pair:
  O1  nonnegativity
  O2  super-additivity over concatenation
  O3  Lipschitz continuity against the declared bound (edit-count metric)
  MII monotonicity under concatenation and invariance under empty extension
Violations are data, not errors: they are counted and the offending inputs
recorded verbatim so they can be replayed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..meanings import Meaning, concat, edit_distance, random_bits
from .core import MeasureSpec, symmetrised_kl
from .lz78 import lz78_parse

_TOL = 1e-9


@dataclass(frozen=True)
class Counterexample:
    property_name: str
    inputs: tuple[str, ...]
    observed: tuple[float, ...]
    detail: str

    def as_dict(self) -> dict:
        return {
            "property": self.property_name,
            "inputs": list(self.inputs),
            "observed": list(self.observed),
            "detail": self.detail,
        }


@dataclass
class AuditReport:
    samples: int
    o1_violations: int = 0
    o2_violations: int = 0
    o3_violations: int = 0
    mii_monotone_violations: int = 0
    mii_extension_violations: int = 0
    worst_lipschitz_ratio: float = 0.0
    counterexamples: list[Counterexample] = field(default_factory=list)

    MAX_RECORDED = 50

    def record(self, example: Counterexample) -> None:
        """Count a violation; keep it while fewer than MAX_RECORDED are kept."""
        counter = _COUNTERS[example.property_name]
        setattr(self, counter, getattr(self, counter) + 1)
        if len(self.counterexamples) < self.MAX_RECORDED:
            self.counterexamples.append(example)

    @property
    def clean(self) -> bool:
        return (
            self.o1_violations
            + self.o2_violations
            + self.o3_violations
            + self.mii_monotone_violations
            + self.mii_extension_violations
        ) == 0

    def violations(self, property_name: str) -> list[Counterexample]:
        return [c for c in self.counterexamples if c.property_name == property_name]

    def to_json(self, **dump_kwargs) -> str:
        doc = {
            "samples": self.samples,
            "o1_violations": self.o1_violations,
            "o2_violations": self.o2_violations,
            "o3_violations": self.o3_violations,
            "mii_monotone_violations": self.mii_monotone_violations,
            "mii_extension_violations": self.mii_extension_violations,
            "worst_lipschitz_ratio": self.worst_lipschitz_ratio,
            "counterexamples": [c.as_dict() for c in self.counterexamples],
        }
        return json.dumps(doc, **dump_kwargs)


def default_sampler(rng: np.random.Generator, max_len: int = 64) -> Meaning:
    """Mixed corpus: uniform random strings, constant runs, and periodic strings."""
    n = int(rng.integers(0, max_len + 1))
    style = rng.random()
    if style < 0.6:
        return Meaning(random_bits(rng, n))
    if style < 0.8:
        return Meaning(("1" if rng.random() < 0.5 else "0") * n)
    period = int(rng.integers(1, 5))
    unit = random_bits(rng, period)
    return Meaning((unit * (n // period + 1))[:n])


def audit_measure(
    spec: MeasureSpec,
    sampler: Callable[[np.random.Generator], Meaning] | None = None,
    samples: int = 10_000,
    seed: int = 0,
    probes: Sequence[tuple[Meaning, Meaning]] = (),
) -> AuditReport:
    """Draw random meanings and test (O1)-(O3) plus the MII properties.

    ``probes`` are extra deterministic pairs checked after the random draws;
    they count toward violations but not toward ``samples``.
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    rng = np.random.default_rng(seed)
    sampler = sampler or default_sampler
    report = AuditReport(samples=samples)

    # Directed probes first so they always make the recorded-example list.
    for m1, m2 in probes:
        _check_pair(spec, m1, m2, report)
    for _ in range(samples):
        _check_pair(spec, sampler(rng), sampler(rng), report)
    return report


def _check_pair(spec: MeasureSpec, m1: Meaning, m2: Meaning, report: AuditReport) -> None:
    found, ratio = _violations(spec, m1, m2)
    if ratio is not None:
        report.worst_lipschitz_ratio = max(report.worst_lipschitz_ratio, ratio)
    for example in found:
        report.record(example)


# Each axiom, in recording order, and the AuditReport field that counts it.
_COUNTERS = {"O1": "o1_violations", "O2": "o2_violations",
             "MII_MONOTONE": "mii_monotone_violations",
             "MII_EXTENSION": "mii_extension_violations", "O3": "o3_violations"}


def _violations(spec: MeasureSpec, m1: Meaning,
                m2: Meaning) -> tuple[list[Counterexample], float | None]:
    """The axioms the pair breaks, in recording order, and its Lipschitz
    ratio (None at edit distance 0)."""
    v1 = spec.evaluate(m1)
    v2 = spec.evaluate(m2)
    joined = spec.evaluate_concat(m1, m2)
    found = []
    if v1 < 0.0 or v2 < 0.0 or joined < 0.0:
        found.append(Counterexample(
            "O1", (m1.symbols, m2.symbols), (v1, v2, joined), "negative value"))
    if joined < v1 + v2 - _TOL:
        found.append(Counterexample(
            "O2", (m1.symbols, m2.symbols), (joined, v1, v2),
            f"gain of concatenation {joined!r} < {v1!r} + {v2!r}"))
    if joined < v1 - _TOL:
        found.append(Counterexample(
            "MII_MONOTONE", (m1.symbols, m2.symbols), (joined, v1),
            "concatenation scored below its first part"))
    extended = spec.evaluate_concat(m1, Meaning(""))
    if abs(extended - v1) > _TOL:
        found.append(Counterexample(
            "MII_EXTENSION", (m1.symbols,), (extended, v1),
            "empty extension changed the value"))

    distance = edit_distance(m1.symbols, m2.symbols)
    if distance == 0:
        return found, None
    ratio = abs(v1 - v2) / distance
    bound = spec.lipschitz_bound
    if bound is not None and ratio > bound + _TOL:
        found.append(Counterexample(
            "O3", (m1.symbols, m2.symbols), (v1, v2, float(distance)),
            f"ratio {ratio!r} exceeds declared bound {bound!r}"))
    return found, ratio


def replay_counterexample(spec: MeasureSpec, example: Counterexample) -> bool:
    """Re-evaluate a recorded counterexample; True when it still violates. A
    one-input example (MII_EXTENSION) is paired with the empty meaning."""
    if example.property_name not in _COUNTERS:
        raise ValueError(f"unknown property {example.property_name!r}")
    m1, m2 = (Meaning(s) for s in (*example.inputs, "")[:2])
    found, _ = _violations(spec, m1, m2)
    return any(c.property_name == example.property_name for c in found)


def audit_lz_dictionary_reuse(
    samples: int = 2_000, seed: int = 0, max_len: int = 64
) -> list[Counterexample]:
    """Check coded_bits(m1 || m2) <= coded_bits(m1) + coded_bits(m2).

    The inequality can fail under the incomplete-tail convention, so findings
    are reported rather than asserted.
    """
    rng = np.random.default_rng(seed)
    found: list[Counterexample] = []
    for _ in range(samples):
        m1 = default_sampler(rng, max_len)
        m2 = default_sampler(rng, max_len)
        lhs = lz78_parse(concat(m1, m2)).coded_bits
        rhs = lz78_parse(m1).coded_bits + lz78_parse(m2).coded_bits
        if lhs > rhs:
            found.append(Counterexample(
                "LZ_DICTIONARY_REUSE", (m1.symbols, m2.symbols),
                (float(lhs), float(rhs)), "concatenation coded longer than parts"))
    return found


def random_distribution(rng: np.random.Generator, support: int = 4) -> dict[int, float]:
    weights = rng.random(support) + 1e-3
    weights /= weights.sum()
    return {i: float(w) for i, w in enumerate(weights)}


def audit_skl_pairs(samples: int = 100, seed: int = 0) -> dict:
    """Pair-level audit of the symmetrised KL: symmetry, nonnegativity, and the
    order-aware super-additivity bound against single-item values (taken as 0).

    Report-only by design; the k-fold extension is left to scenario authors.
    """
    rng = np.random.default_rng(seed)
    worst_asymmetry = 0.0
    negative = 0
    super_additive_failures = 0
    for _ in range(samples):
        p = random_distribution(rng)
        q = random_distribution(rng)
        forward = symmetrised_kl(p, q)
        backward = symmetrised_kl(q, p)
        worst_asymmetry = max(worst_asymmetry, abs(forward - backward))
        if forward < 0.0:
            negative += 1
        if forward < 0.0 - _TOL:  # single-item values are 0 by convention
            super_additive_failures += 1
    return {
        "samples": samples,
        "worst_asymmetry": worst_asymmetry,
        "negative_values": negative,
        "pair_super_additivity_failures": super_additive_failures,
    }
