"""Config parsing, artifact layout, CLI verbs, and exit codes."""

import dataclasses
import json
import math
import warnings
import xml.etree.ElementTree as ET

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsim.cli import (
    ScenarioParseError,
    ScenarioValidationError,
    builtin_scenarios,
    emit_scenarios,
    parse_scenarios,
    run_scenario,
)
from loopsim.cli.config import VALID_OUTPUTS, Scenario, build_run_config
from loopsim.cli.main import main
from loopsim.cli.runner import AUDITS, KINDS, RUN_CHECKS, _verdicts, run_audit
from loopsim.engine import run

MINIMAL = """
[meta]
schema = 1

[scenario:tiny]
kind = run
mode = ABSTRACT
psi_kind = GATED
gamma_true = 10
gain_lo = 0
gain_hi = 10
update_kind = DELTA_MONOTONE
delta = 1.0
gamma = 10
initial_norm = 11
horizon = 50
seed = 1
outputs = csv,json,svg
checks = drift
"""


class TestParsing:
    def test_minimal_file(self):
        scenarios = parse_scenarios(MINIMAL)
        assert len(scenarios) == 1
        assert scenarios[0].name == "tiny"
        assert scenarios[0].checks == ("drift",)

    def test_missing_meta(self):
        with pytest.raises(ScenarioParseError):
            parse_scenarios("[scenario:x]\nkind = run\n")

    def test_wrong_schema(self):
        with pytest.raises(ScenarioParseError):
            parse_scenarios("[meta]\nschema = 99\n\n[scenario:x]\nkind = run\n")

    def test_bad_number_names_field(self):
        bad = MINIMAL.replace("delta = 1.0", "delta = fast")
        with pytest.raises(ScenarioParseError, match="delta"):
            parse_scenarios(bad)

    def test_negative_beta_entry_is_a_validation_error(self):
        text = """
[meta]
schema = 1

[scenario:bad]
kind = swarm
k = 2
beta = 0 -0.5; 0.5 0
lam = 1,1
gamma = 10
"""
        with pytest.raises(ScenarioValidationError, match="nonnegative"):
            parse_scenarios(text)

    def test_duplicate_names_rejected(self):
        text = MINIMAL + "\n[scenario:tiny]\nkind = run\ngamma = 1\nhorizon = 1\n"
        with pytest.raises((ScenarioParseError, ScenarioValidationError)):
            parse_scenarios(text)

    def test_sweep_expansion(self):
        text = MINIMAL + "sweep_gamma = 5,10,20\n"
        scenario = parse_scenarios(text.replace("gamma = 10", "gamma = 5"))[0]
        points = list(scenario.sweep_points())
        assert len(points) == 3
        assert points[0][0] == "gamma=5"

    def test_unknown_check_rejected(self):
        bad = MINIMAL.replace("checks = drift", "checks = vibes")
        with pytest.raises(ScenarioValidationError, match="vibes"):
            parse_scenarios(bad)


def _field_text(draw, default, least):
    """A valid text for a runner field of the given default and least value."""
    if isinstance(default, str):
        return draw(st.sampled_from(["gamma", "none"]))
    if isinstance(default, tuple):
        values = draw(st.lists(st.floats(0.5, 1e4), min_size=3, max_size=6))
        return ",".join(map(repr, values))
    if isinstance(default, int):
        return str(draw(st.integers(least or 0, 10**6)))
    return repr(draw(st.floats(allow_nan=False, allow_infinity=False)))


@st.composite
def scenario_lists(draw):
    """Valid scenarios: builtins with runner fields, checks, outputs, repeats
    and a seed sweep drawn from their kind's field and check tables."""
    scenarios = []
    for i in range(draw(st.integers(1, 4))):
        base = draw(st.sampled_from(builtin_scenarios()))
        kind = KINDS[base.kind]
        fields = dict(base.fields)
        for key, (default, least) in kind.fields.items():
            if draw(st.booleans()):
                fields[key] = _field_text(draw, default, least)
        seeds = draw(st.lists(st.integers(0, 999), max_size=3))
        scenarios.append(Scenario(
            name=f"s{i}", kind=base.kind, fields=tuple(sorted(fields.items())),
            sweep=(("seed", tuple(map(str, seeds))),) if seeds else (),
            repeat=draw(st.integers(1, 3)),
            outputs=tuple(draw(st.lists(st.sampled_from(VALID_OUTPUTS), unique=True))),
            checks=tuple(draw(st.lists(st.sampled_from(sorted(kind.checks)),
                                       unique=True)) if kind.checks else ())))
    return scenarios


class TestRoundTrip:
    def test_builtin_scenarios_round_trip(self):
        builtins = builtin_scenarios()
        text = emit_scenarios(builtins)
        assert parse_scenarios(text) == builtins

    @settings(max_examples=60, deadline=None)
    @given(scenario_lists())
    def test_emitted_scenarios_parse_back(self, scenarios):
        assert parse_scenarios(emit_scenarios(scenarios)) == scenarios


class TestArtifacts:
    def run_tiny(self, tmp_path):
        scenario = parse_scenarios(MINIMAL)[0]
        summary = run_scenario(scenario, tmp_path)
        return scenario, summary

    def test_artifact_files_exist(self, tmp_path):
        scenario, summary = self.run_tiny(tmp_path)
        rundir = tmp_path / "tiny"
        assert (rundir / "base__seed1.csv").exists()
        assert (rundir / "base__seed1.svg").exists()
        assert (tmp_path / "tiny.summary.json").exists()
        assert summary["failures"] == 0

    def test_csv_schema_stability(self, tmp_path):
        self.run_tiny(tmp_path)
        header = (tmp_path / "tiny" / "base__seed1.csv").read_text().splitlines()[0]
        assert header == "t,norm,omega,delta,epsilon_t,flops,events"

    def test_svg_is_valid_xml_with_one_polyline(self, tmp_path):
        self.run_tiny(tmp_path)
        root = ET.fromstring((tmp_path / "tiny" / "base__seed1.svg").read_text())
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 1

    def test_rerun_is_byte_identical(self, tmp_path):
        scenario = parse_scenarios(MINIMAL)[0]
        run_scenario(scenario, tmp_path / "a")
        run_scenario(scenario, tmp_path / "b")
        csv_a = (tmp_path / "a" / "tiny" / "base__seed1.csv").read_bytes()
        csv_b = (tmp_path / "b" / "tiny" / "base__seed1.csv").read_bytes()
        assert csv_a == csv_b

    def assert_runaway_truncated(self, tmp_path, measure_lines=""):
        text = (MINIMAL.replace("GATED", "MIRROR")
                .replace("update_kind", measure_lines + "update_kind")
                .replace("delta = 1.0", "delta = 0.25")
                .replace("initial_norm = 11", "initial_norm = 4")
                .replace("horizon = 50", "horizon = 4000")
                .replace("checks = drift", "checks = bounded"))
        summary = run_scenario(parse_scenarios(text)[0], tmp_path)
        entry = summary["runs"][0]
        assert entry["steps"] < 4000
        assert entry["final_norm"] == float("inf")
        rows = (tmp_path / "tiny" / "base__seed1.csv").read_text().splitlines()
        assert len(rows) == entry["steps"] + 1
        assert rows[-1].endswith(",OVERFLOW")
        assert summary["failures"] == 1
        svg = (tmp_path / "tiny" / "base__seed1.svg").read_text()
        assert "nan" not in svg and "inf" not in svg

    def test_overflow_truncated_drift_is_judged_on_the_finite_prefix(self):
        # MIRROR with delta 0.25 from 4 overflows after 3,175 of 4,000 steps.
        text = (MINIMAL.replace("GATED", "MIRROR").replace("delta = 1.0", "delta = 0.25")
                .replace("initial_norm = 11", "initial_norm = 4")
                .replace("gamma = 10\n", "gamma = 50\n")
                .replace("horizon = 50", "horizon = 4000"))
        cfg = build_run_config(parse_scenarios(text)[0], {}, seed=15)
        traj = run(cfg)
        assert traj.steps == 3_175 and traj.final_norm == float("inf")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            bounded, drift = _verdicts(RUN_CHECKS, ("bounded", "drift"), traj, cfg, {})
        assert bounded["status"] == "FAIL"
        assert drift["status"] == "PASS"
        assert drift["detail"]["overflow_step"] == 3_174
        assert math.isfinite(drift["detail"]["mean_drift"])

    def test_runaway_norm_ends_in_a_flagged_truncated_run(self, tmp_path):
        self.assert_runaway_truncated(tmp_path)

    def test_power_law_gain_overflow_ends_in_a_flagged_truncated_run(self, tmp_path):
        self.assert_runaway_truncated(
            tmp_path, "measure_kind = POWER_LAW\nbeta_pow = 2.0\n")

    def test_sweep_seed_gives_each_point_its_seed(self, tmp_path):
        # A masked run: its CSV depends on the channel seed.
        text = MINIMAL.replace("seed = 1", "eps0 = 0.5") + "sweep_seed = 1,2,3\n"
        summary = run_scenario(parse_scenarios(text)[0], tmp_path)
        assert [entry["seed"] for entry in summary["runs"]] == [1, 2, 3]
        csvs = {(tmp_path / "tiny" / entry["csv"]).read_text() for entry in summary["runs"]}
        assert len(csvs) == 3

    def test_parallel_jobs_match_serial(self, tmp_path):
        text = MINIMAL + "sweep_gamma = 8,10\n"
        scenario = parse_scenarios(text)[0]
        serial = run_scenario(scenario, tmp_path / "serial", jobs=1)
        parallel = run_scenario(scenario, tmp_path / "parallel", jobs=2)
        assert serial["runs"] == parallel["runs"]


# One run per check: the builtin scenario it starts from, field overrides,
# and the status the check must give.
CHECK_RUNS = {
    "drift": ("drift", {}, "PASS"),
    "bounded": ("bounded", {"horizon": "2000"}, "PASS"),
    "bursts": ("bursts", {}, "PASS"),
    "fixed_point": ("tokens", {"temperature": "0.0"}, "INFO"),
    "cost_slope": ("cost_slope", {}, "PASS"),
    "time_bound": ("finite_time", {}, "PASS"),
    "sublinear_growth": ("bounded", {"horizon": "2000"}, "INFO"),
    "collective_gain": ("swarm_sync", {}, "PASS"),
    "divergence": ("swarm_relay", {}, "PASS"),
}


class TestCheckTables:
    @pytest.mark.parametrize(
        "check", [name for kind in KINDS.values() for name in kind.checks])
    def test_each_check_runs(self, tmp_path, check):
        base_name, overrides, expected = CHECK_RUNS[check]
        base = [s for s in builtin_scenarios() if s.name == base_name][0]
        scenario = dataclasses.replace(
            base, fields=tuple(sorted({**dict(base.fields), **overrides}.items())),
            sweep=(), repeat=1, outputs=("json",), checks=(check,))
        summary = run_scenario(scenario, tmp_path)
        verdict, = summary["runs"][0]["checks"]
        assert (verdict["name"], verdict["status"]) == (check, expected)

    @pytest.mark.parametrize("check,old,new", [
        ("bounded", "", ""),                   # starts above gamma
        ("bursts", "", ""),                    # not a WINDOWED run
        ("time_bound", "seed = 1", "seed = 1\nbound_target = 5"),  # below the crossing
        ("sublinear_growth", "horizon = 50", "horizon = 1"),
    ])
    def test_rejected_run_fails_naming_the_reason(self, tmp_path, check, old, new):
        text = MINIMAL.replace("checks = drift", f"checks = {check}").replace(old, new)
        summary = run_scenario(parse_scenarios(text)[0], tmp_path)
        verdict, = summary["runs"][0]["checks"]
        assert verdict["status"] == "FAIL" and verdict["detail"]["error"]

    def _relay(self, tmp_path, **fields):
        base = [s for s in builtin_scenarios() if s.name == "swarm_relay"][0]
        scenario = dataclasses.replace(
            base, fields=tuple(sorted({**dict(base.fields), **fields}.items())),
            outputs=("json",), checks=("divergence", "collective_gain"))
        return run_scenario(scenario, tmp_path)["runs"][0]

    def test_critical_swarm_reads_info(self, tmp_path):
        entry = self._relay(tmp_path, beta="0,0;0,0", gamma="10")
        divergence = entry["checks"][0]
        assert divergence["status"] == "INFO" and divergence["detail"]["rho"] == 1.0

    def test_relay_overflow_names_its_tick(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            entry = self._relay(tmp_path, k="3", beta="0,.5,.5;.5,0,.5;.5,.5,0",
                                lam="1,1,1", horizon="10000")
        divergence, gain = entry["checks"]
        assert entry["overflow_tick"] == 645 and entry["steps"] == 646
        assert divergence["status"] == "PASS" and divergence["detail"]["rho"] == 3.0
        assert gain["status"] == "FAIL" and "tick 645" in gain["detail"]["error"]

    @pytest.mark.parametrize("measure", list(AUDITS))
    def test_each_audit_runs(self, measure):
        doc = run_audit(measure, samples=200, seed=1)
        assert doc["audit"] == measure and doc["verdicts"]
        assert all(v["status"] != "FAIL" for v in doc["verdicts"])


class TestBuiltins:
    def test_onebit_trace(self, tmp_path):
        scenario = [s for s in builtin_scenarios() if s.name == "onebit"][0]
        summary = run_scenario(scenario, tmp_path)
        csv_path = tmp_path / "onebit" / "base__seed1.csv"
        rows = csv_path.read_text().splitlines()[1:]
        assert len(rows) == 32
        assert all(row.split(",")[1] == "1" for row in rows)  # 1-bit context
        assert summary["failures"] == 0

    def test_tokens_classification_contrast(self, tmp_path):
        scenario = [s for s in builtin_scenarios() if s.name == "tokens"][0]
        summary = run_scenario(scenario, tmp_path)
        by_label = {e["label"]: e for e in summary["runs"]}
        hot = by_label["temperature=1.0"]
        cold = by_label["temperature=0.0"]
        assert hot["classification"] == "DIVERGENT"
        assert cold["classification"] == "CONVERGED"
        assert cold["checks"][0]["detail"]["fixed_point_step"] <= 2

    def test_prototype_histories(self, tmp_path):
        scenario = [s for s in builtin_scenarios() if s.name == "prototype"][0]
        summary = run_scenario(scenario, tmp_path)
        statuses = {v["name"]: v["status"] for v in summary["runs"][0]["checks"]}
        assert statuses["prototype_overwrite_binary"] == "PASS"
        assert statuses["prototype_cumulative_monotone"] == "PASS"


class TestConjecture:
    def test_fit_fields_and_point_count(self):
        from loopsim.cli import conjecture_experiment
        scenario = [s for s in builtin_scenarios()
                    if s.name == "conjecture_log"][0]
        fit = conjecture_experiment(scenario)
        assert len(fit["points"]) == 5
        assert fit["slope"] > 0.0
        assert fit["r_squared"] > 0.9
        assert 0.0 <= fit["r_squared"] <= 1.0

    def test_flat_control_has_no_trend(self):
        from loopsim.cli import conjecture_experiment
        scenario = [s for s in builtin_scenarios()
                    if s.name == "conjecture_flat"][0]
        fit = conjecture_experiment(scenario)
        assert abs(fit["slope"]) < 0.5

    def test_needs_three_distinct_budgets(self):
        from loopsim.cli import conjecture_experiment
        base = [s for s in builtin_scenarios() if s.name == "conjecture_log"][0]
        fields = dict(base.fields)
        fields["budgets"] = "100,100,100"
        import dataclasses
        bad = dataclasses.replace(base, fields=tuple(sorted(fields.items())))
        with pytest.raises(ValueError, match="3 distinct"):
            conjecture_experiment(bad)


class TestCliVerbs:
    def test_run_exit_zero(self, tmp_path):
        result = CliRunner().invoke(
            main, ["run", "builtin", "--scenario", "drift",
                   "--out", str(tmp_path)])
        assert result.exit_code == 0

    def test_run_failure_exits_one(self, tmp_path):
        config = tmp_path / "fail.ini"
        config.write_text(MINIMAL.replace("initial_norm = 11",
                                          "initial_norm = 0"))
        result = CliRunner().invoke(
            main, ["run", str(config), "--out", str(tmp_path / "out")])
        assert result.exit_code == 1

    def test_parse_error_exits_two(self, tmp_path):
        config = tmp_path / "bad.ini"
        config.write_text("[meta]\nschema = 1\n\n[scenario:x]\nkind = run\n"
                          "gamma = nope\nhorizon = 1\n")
        result = CliRunner().invoke(
            main, ["run", str(config), "--out", str(tmp_path / "out")])
        assert result.exit_code == 2

    def test_missing_config_exits_two(self):
        result = CliRunner().invoke(main, ["run", "/does/not/exist.ini"])
        assert result.exit_code == 2

    def test_unknown_scenario_exits_two(self):
        result = CliRunner().invoke(
            main, ["run", "builtin", "--scenario", "nonesuch"])
        assert result.exit_code == 2

    def test_audit_verb(self, tmp_path):
        result = CliRunner().invoke(
            main, ["audit", "length", "--samples", "500",
                   "--out", str(tmp_path)])
        assert result.exit_code == 0
        doc = json.loads((tmp_path / "length.audit.json").read_text())
        assert doc["verdicts"][0]["status"] == "PASS"

    def test_gamma_star_verb(self):
        result = CliRunner().invoke(
            main, ["gamma-star", "builtin", "--scenario", "tightness"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert abs(doc["gamma_star"] - 50.0) <= 2.5

    @pytest.mark.parametrize("verb,field", [("gamma-star", "bracket_lo = 1"),
                                            ("conjecture", "budgets = 50,100,200")])
    def test_experiment_on_a_swept_scenario_exits_two(self, tmp_path, verb, field):
        path = tmp_path / "swept.ini"
        path.write_text(MINIMAL + f"{field}\nsweep_seed = 1,2,3\nsweep_gamma_true = 20,50\n")
        result = CliRunner().invoke(main, [verb, str(path)])
        assert result.exit_code == 2
        assert "'tiny'" in result.output
        assert "sweep_gamma_true, sweep_seed" in result.output

    def test_conjecture_needs_budget_grid(self):
        result = CliRunner().invoke(
            main, ["conjecture", "builtin", "--scenario", "drift"])
        assert result.exit_code == 2

    def test_gamma_star_needs_a_bracket(self):
        result = CliRunner().invoke(
            main, ["gamma-star", "builtin", "--scenario", "drift"])
        assert result.exit_code == 2
        assert "'bracket_lo'" in result.output

    def test_report_aggregates_and_exits(self, tmp_path):
        CliRunner().invoke(main, ["run", "builtin", "--scenario", "drift",
                                  "--out", str(tmp_path)])
        result = CliRunner().invoke(main, ["report", str(tmp_path)])
        assert result.exit_code == 0
        assert "drift" in result.output
        assert "0 failures" in result.output

    def test_documented_counterexamples_do_not_fail_the_report(self, tmp_path):
        CliRunner().invoke(main, ["audit", "compression_gain",
                                  "--samples", "1000", "--out", str(tmp_path)])
        result = CliRunner().invoke(main, ["report", str(tmp_path)])
        assert result.exit_code == 0
        assert "COUNTEREXAMPLE FOUND (documented)" in result.output

    @pytest.mark.parametrize(
        "payload",
        ['{"runs": [', "5", "[]", '"x"', "null", '{"runs": 5}',
         '{"runs": [{"checks": [{"status": "FAIL"}]}]}'],
        ids=["truncated", "number", "list", "string", "null", "runs_number",
             "nameless_check"])
    def test_report_fails_on_unreadable_summary(self, tmp_path, payload):
        CliRunner().invoke(main, ["run", "builtin", "--scenario", "drift",
                                  "--out", str(tmp_path)])
        (tmp_path / "x.summary.json").write_text(payload, encoding="utf-8")
        result = CliRunner().invoke(main, ["report", str(tmp_path)])
        assert result.exit_code == 1
        assert "file=x.summary.json" in result.output
        assert "1 failures" in result.output

    def test_report_fails_on_empty_directory(self, tmp_path):
        result = CliRunner().invoke(main, ["report", str(tmp_path)])
        assert result.exit_code == 1
        assert "0 verdicts" in result.output

    @pytest.mark.parametrize("verb,field,text", [
        ("run", "bound_target", MINIMAL.replace(
            "checks = drift", "checks = time_bound\nbound_target = abc")),
        ("run", "rank", MINIMAL.replace(
            "checks = drift", "checks = cost_slope\nrank = 0")),
        ("run", "horizon", "[meta]\nschema = 1\n\n[scenario:tiny]\nkind = swarm\n"
                           "beta = 0 0.5; 0.5 0\ngamma = 100\nhorizon = 0\n"),
        ("gamma-star", "iterations", MINIMAL + "bracket_lo = 1\niterations = 0\n"),
    ], ids=["bound_target", "rank", "swarm_horizon", "iterations"])
    def test_bad_runner_field_exits_two_naming_it(self, tmp_path, verb, field, text):
        config = tmp_path / "bad.ini"
        config.write_text(text)
        result = CliRunner().invoke(
            main, [verb, str(config), "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert f"scenario 'tiny', field {field!r}" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line,field", [
        ("gama = 5", "gama"), ("horizn = 100", "horizn"), ("sweep_gama = 1,2", "gama"),
        ("schedule = SYNCHRONOUS", "schedule"),  # a swarm field on a run scenario
    ])
    def test_unknown_field_exits_two_naming_it(self, tmp_path, line, field):
        config = tmp_path / "bad.ini"
        config.write_text(MINIMAL + line + "\n")
        result = CliRunner().invoke(
            main, ["run", str(config), "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert f"scenario 'tiny', field {field!r}: unknown field" in result.output
        assert not (tmp_path / "out").exists()

    def test_summary_is_written_without_json_output(self, tmp_path):
        config = tmp_path / "fail.ini"
        config.write_text(MINIMAL.replace("csv,json,svg", "csv")
                          .replace("initial_norm = 11", "initial_norm = 0"))
        CliRunner().invoke(main, ["run", str(config), "--out", str(tmp_path / "out")])
        assert (tmp_path / "out" / "tiny.summary.json").exists()
        result = CliRunner().invoke(main, ["report", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert "drift" in result.output and "FAIL" in result.output

    def test_report_flags_failures(self, tmp_path):
        config = tmp_path / "fail.ini"
        config.write_text(MINIMAL.replace("initial_norm = 11",
                                          "initial_norm = 0"))
        CliRunner().invoke(main, ["run", str(config),
                                  "--out", str(tmp_path / "out")])
        result = CliRunner().invoke(main, ["report", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert "FAIL" in result.output
