"""Pins of the audit and gamma-star documents and of the builtin run summaries.

The measure audits and the gamma-star estimate are exact functions of their
seed, so their JSON text must not move when the code under them is
refactored. `conjecture` is left out: its `np.polyfit` floats depend on the
BLAS build. The run-level fields of every builtin run summary entry (steps,
final norm, crossing step and total flops, none of which a CSV holds) are
pinned value by value, and the CSVs and SVG plots of the builtin set by one
digest each.
"""

import dataclasses
import hashlib

import pytest

from loopsim.cli import builtin_scenarios
from loopsim.cli.runner import json_text, run_audit, run_gamma_star, run_scenario

AUDIT_DIGESTS = {
    "length": "b4d4a1fb8f9e064656320992e7221aeb04b4b226fe38f5c68bd7c2f313686e06",
    "compression_gain": "e595b63181f959a2414ee9428de9913c51ac8b84814c40c66ece421999dd63ee",
    "power_law": "9b459ecd1291dc1a0349d0143e044c16ea1dd661af1452e966f1d28de3e06671",
    "fisher": "57eeb112933f33041d15b21f77d4dd67c9334377a34b185652a8cfbc09f75ba3",
    "declared_bonus": "5ce886392c97c13327de72b00d1c177b5e2b09cfbd2e04873b8e9f478138dce4",
    "skl": "ba4590ad7e7e61dbf48b6e50054559319e4ec6442ac3fd95e8cb6404fa26eb15",
    "lz_reuse": "139887d3a3b9b090db28e796680ff4c4617ccfa14067466d80af961306865ebb",
}
# The same documents at the sample counts of the symbol_audit workload, seed 41.
AUDIT_DIGESTS_AT_SCALE = {
    "length": (2000, "ad305a5bc0214ce7b87d96d0ad36ba2f41f52a12edf94d098929655a1e2eb37d"),
    "compression_gain": (
        500, "c4ee30c3bae062b4c06c8e9cba9e5ffb6df2d006111826cb35b45f4773637956"),
    "power_law": (2000, "4d3ec7c4abb82651a95d5f28ca36a4533fcdcffbf4a262c471f4bf8d499be9cd"),
    "fisher": (2000, "97688e563519e82a04fa6b7896887491a96f54601437eb0611688b932d74c9f3"),
    "declared_bonus": (
        2000, "5bda2f7a4d08b24ee19bc20eef4bd3197da94eced3a8dc93a36aeb658c25dd50"),
    "skl": (2000, "999d61351b4b605c0ca83d278e68cf5015259c1c493ba9565d37b794d27afefd"),
    "lz_reuse": (2000, "79505cf84a52e6eae0c5a573139e709f96af3622a4cfb344ff57f7791ca2fea1"),
}
GAMMA_STAR_DIGEST = "fb792e814cd6763307e4d85e5c7e13f52da9f46911c3d61c31f431fd49fb9019"
# `tightness` over a TAGGED_INJECTIVE channel, which gains at every norm: the
# bisection walks down to bracket_lo.
TAGGED_GAMMA_STAR_DIGEST = "7d8c7d9c3c3dbcfec410812beee6c027bc7f1a0a4699e684b3ab7bd754c8a7ee"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("measure", list(AUDIT_DIGESTS))
def test_audit_document_is_pinned(measure):
    assert sha256(json_text(run_audit(measure, samples=777, seed=0))) == AUDIT_DIGESTS[measure]


@pytest.mark.parametrize("measure", list(AUDIT_DIGESTS_AT_SCALE))
def test_audit_document_at_scale_is_pinned(measure):
    samples, digest = AUDIT_DIGESTS_AT_SCALE[measure]
    assert sha256(json_text(run_audit(measure, samples=samples, seed=41))) == digest


def test_gamma_star_document_is_pinned():
    tightness = next(s for s in builtin_scenarios() if s.name == "tightness")
    assert sha256(json_text(run_gamma_star(tightness))) == GAMMA_STAR_DIGEST


def test_gamma_star_on_a_tagged_channel_is_pinned():
    tightness = next(s for s in builtin_scenarios() if s.name == "tightness")
    fields = dict(tightness.fields) | {"psi_kind": "TAGGED_INJECTIVE"}
    doc = run_gamma_star(dataclasses.replace(tightness, fields=tuple(sorted(fields.items()))))
    assert doc["gamma_star"] == 1.000047206878662
    assert sha256(json_text(doc)) == TAGGED_GAMMA_STAR_DIGEST


# (steps, final_norm, crossing_step, total_flops) of each run entry, in order.
RUN_SUMMARY_PINS = {
    "bounded": [(20000, 5.0, None, 600000.0)] * 3,
    "bursts": [(20000, 31.0, 0, 88516186.0)],
    "collapse": [(20000, 2.0, None, 120000.0)] * 3,
    "conjecture_flat": [(400, 3586.0, 12, 1707875910.0)],
    "conjecture_log": [(400, 2.8747446397016238e+35, 13, 1.4731964329696595e+71)],
    "cost_slope": [(10000, 100011.0, 0, 33339833670000.0)],
    "drift": [(10000, 50011.0, 0, 8337834120000.0)],
    "finite_time": [(40, 362.0, 5, 1522960.0)],
    "masked_drift": [(10000, 59399.0, 0, 11715231946332.0)],
    "onebit": [(32, 1.0, None, 64.0)],
    "tightness": [(1, 0.0, None, 0.0)],
    "tokens": [(100, 22.0, 1, 50094.0), (2, 22.0, 1, 506.0)],
}


def test_builtin_run_summaries_are_pinned(tmp_path):
    scenarios = [s for s in builtin_scenarios() if s.kind == "run"]
    assert sorted(s.name for s in scenarios) == sorted(RUN_SUMMARY_PINS)
    for scenario in scenarios:
        summary = run_scenario(dataclasses.replace(scenario, outputs=()), tmp_path)
        got = [(e["steps"], e["final_norm"], e["crossing_step"], e["total_flops"])
               for e in summary["runs"]]
        assert got == RUN_SUMMARY_PINS[scenario.name], scenario.name


# SHA-256 over the sorted relative names and bytes of every SVG the builtin
# set writes with outputs csv,json,svg (`loopsim run builtin` writes none).
BUILTIN_SVG_DIGEST = "72630b577d990deaddf9557bca33665c56fa3286b63433fc74692ac4db6b1085"


def test_builtin_svg_plots_are_pinned(tmp_path):
    for scenario in builtin_scenarios():
        run_scenario(dataclasses.replace(scenario, outputs=("csv", "json", "svg")), tmp_path)
    digest = hashlib.sha256()
    paths = sorted(tmp_path.rglob("*.svg"))
    for path in paths:
        digest.update(path.relative_to(tmp_path).as_posix().encode() + b"\0" + path.read_bytes())
    assert len(paths) == 20
    assert digest.hexdigest() == BUILTIN_SVG_DIGEST


# SHA-256 over the sorted relative names and bytes of every CSV that
# `loopsim run builtin` writes (the default outputs, csv,json).
BUILTIN_CSV_DIGEST = "57981fc9f6bfc7363f19a7cf38615ddffacce272dd6730d9ce7217d96cd35829"


def test_builtin_csvs_are_pinned(tmp_path):
    for scenario in builtin_scenarios():
        run_scenario(scenario, tmp_path)
    digest = hashlib.sha256()
    paths = sorted(tmp_path.rglob("*.csv"))
    for path in paths:
        digest.update(path.relative_to(tmp_path).as_posix().encode() + b"\0" + path.read_bytes())
    assert len(paths) == 28
    assert digest.hexdigest() == BUILTIN_CSV_DIGEST
