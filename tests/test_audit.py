"""Axiom audit harness: clean measures stay clean, broken ones get caught."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsim.channel import Draws
from loopsim.meanings import Meaning, edit_distance
from loopsim.measures import (
    audit_lz_dictionary_reuse,
    audit_measure,
    audit_skl_pairs,
    compression_gain_measure,
    default_sampler,
    fisher_measure,
    length_measure,
    lz78_parse,
    replay_counterexample,
)

FISHER_PROBE = (Meaning("1"), Meaning("0"))


def generator_edit_distance(a, b):
    """The metric as a generator expression over the shared prefix."""
    if len(a) > len(b):
        a, b = b, a
    return (len(b) - len(a)) + sum(x != y for x, y in zip(a, b))


@settings(max_examples=300, deadline=None)
@given(a=st.text(alphabet="01ab", max_size=40), b=st.text(alphabet="01ab", max_size=40))
def test_edit_distance_equals_generator_form(a, b):
    # Unequal lengths and non-binary symbols included; the result is the same int.
    distance = edit_distance(a, b)
    assert type(distance) is int
    assert distance == generator_edit_distance(a, b) == edit_distance(b, a)


class TestLengthAudit:
    def test_length_is_exactly_clean(self):
        report = audit_measure(length_measure(), samples=10_000, seed=1)
        assert report.o1_violations == 0
        assert report.o2_violations == 0
        assert report.o3_violations == 0
        assert report.mii_monotone_violations == 0
        assert report.mii_extension_violations == 0
        assert report.worst_lipschitz_ratio <= 1.0


class TestCompressionGainAudit:
    def test_nonnegativity_is_clean(self):
        report = audit_measure(compression_gain_measure(), samples=10_000, seed=2)
        assert report.o1_violations == 0

    def test_short_string_scores_zero(self):
        # The documented unit-floor counterexample: one raw bit codes to one
        # bit, so the gain is 0, not >= 1.
        assert compression_gain_measure().evaluate(Meaning("0")) == 0.0


class TestFisherAudit:
    def test_super_additivity_violations_found(self):
        report = audit_measure(
            fisher_measure(0.5), samples=10_000, seed=3, probes=[FISHER_PROBE])
        assert report.o2_violations > 0
        probe_hits = [
            c for c in report.violations("O2") if c.inputs == ("1", "0")]
        assert probe_hits, "the directed '1'/'0' probe must be reported"

    def test_counterexamples_replay(self):
        spec = fisher_measure(0.5)
        report = audit_measure(spec, samples=2_000, seed=4, probes=[FISHER_PROBE])
        assert report.counterexamples
        for example in report.counterexamples:
            assert replay_counterexample(spec, example)


class TestReportShape:
    def test_violation_counts_bounded_by_trials(self):
        report = audit_measure(fisher_measure(0.5), samples=500, seed=5)
        checked = 500
        for count in (report.o1_violations, report.o2_violations,
                      report.o3_violations, report.mii_monotone_violations,
                      report.mii_extension_violations):
            assert 0 <= count <= checked

    def test_json_document_fields(self):
        report = audit_measure(length_measure(), samples=100, seed=6)
        doc = json.loads(json.dumps(report.as_dict()))
        for key in ("samples", "o1_violations", "o2_violations", "o3_violations",
                    "mii_monotone_violations", "mii_extension_violations",
                    "worst_lipschitz_ratio", "counterexamples"):
            assert key in doc

    def test_counterexamples_carry_symbols_verbatim(self):
        report = audit_measure(
            fisher_measure(0.5), samples=10, seed=7, probes=[FISHER_PROBE])
        doc = report.as_dict()
        inputs = [tuple(c["inputs"]) for c in doc["counterexamples"]]
        assert ("1", "0") in inputs

    def test_rejects_bad_sample_count(self):
        with pytest.raises(ValueError):
            audit_measure(length_measure(), samples=0)

    @pytest.mark.parametrize("audit", [audit_lz_dictionary_reuse, audit_skl_pairs])
    @pytest.mark.parametrize("samples", [0, -5])
    def test_side_audits_reject_bad_sample_count(self, audit, samples):
        with pytest.raises(ValueError, match="samples must be positive"):
            audit(samples=samples)


class TestSideAudits:
    def test_lz_reuse_findings_are_real(self):
        findings = audit_lz_dictionary_reuse(samples=500, seed=8)
        # Report-only: whatever is found must replay, nothing is asserted
        # about the count.
        from loopsim.measures import lz78_parse
        for f in findings:
            joined = lz78_parse(f.inputs[0] + f.inputs[1]).coded_bits
            parts = lz78_parse(f.inputs[0]).coded_bits + lz78_parse(f.inputs[1]).coded_bits
            assert joined > parts

    def test_skl_pair_audit_reports(self):
        report = audit_skl_pairs(samples=100, seed=9)
        assert report["samples"] == 100
        assert report["worst_asymmetry"] <= 1e-12
        assert report["negative_values"] == 0
        assert report["pair_super_additivity_failures"] == 0


def reference_lz_reuse(samples, seed, max_len):
    """The dictionary-reuse findings, each side parsed from scratch."""
    draws, found = Draws(seed), []
    for _ in range(samples):
        m1, m2 = (default_sampler(draws, max_len).symbols for _ in range(2))
        lhs = lz78_parse(m1 + m2).coded_bits
        rhs = lz78_parse(m1).coded_bits + lz78_parse(m2).coded_bits
        if lhs > rhs:
            found.append((m1, m2, float(lhs), float(rhs)))
    return found


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), samples=st.integers(1, 120),
       max_len=st.sampled_from([0, 1, 5, 16, 64]))
def test_lz_reuse_sides_equal_the_parses(seed, samples, max_len):
    found = audit_lz_dictionary_reuse(samples=samples, seed=seed, max_len=max_len)
    assert [(*f.inputs, *f.observed) for f in found] == \
        reference_lz_reuse(samples, seed, max_len)


def method_sampler(draws, max_len):
    """The corpus drawn one `Draws` method call at a time."""
    n = draws.below(max_len + 1)
    style = draws.random()
    if style < 0.6:
        return draws.bits(n)
    if style < 0.8:
        return ("1" if draws.random() < 0.5 else "0") * n
    return (draws.bits(1 + draws.below(4)) * (n + 1))[:n]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), block=st.integers(1, 5),
       ops=st.lists(st.sampled_from([0, 1, 16, 64, "random", "bits"]), max_size=40))
def test_corpus_equals_the_method_calls_across_blocks(seed, block, ops):
    # Kept half-words, strings and the corpus's own refills that cross block
    # boundaries, interleaved with the other draws.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("loopsim.channel._DRAWS_BLOCK_WORDS", block)
        a, b = Draws(seed), Draws(seed)
        for op in ops:
            if op == "random":
                assert a.random() == b.random()
            elif op == "bits":
                assert a.bits(3) == b.bits(3)
            else:
                assert default_sampler(a, op).symbols == method_sampler(b, op)
        assert a.random() == b.random()
