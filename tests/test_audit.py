"""Axiom audit harness: clean measures stay clean, broken ones get caught."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsim.meanings import Meaning, edit_distance
from loopsim.measures import (
    audit_lz_dictionary_reuse,
    audit_measure,
    audit_skl_pairs,
    compression_gain_measure,
    fisher_measure,
    length_measure,
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
