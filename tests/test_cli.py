"""Config parsing, artifact layout, CLI verbs, and exit codes."""

import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import loopsim
from loopsim.cli import (
    ScenarioParseError,
    ScenarioValidationError,
    builtin_scenarios,
    emit_scenarios,
    parse_scenarios,
    run_scenario,
)
from loopsim.cli.config import VALID_OUTPUTS, Scenario, build_run_config, build_swarm_spec
from loopsim.cli.main import main
from loopsim.cli.runner import (AUDITS, KINDS, RUN_CHECKS, STATIC_ONLY, _atomic_write, _verdicts,
                                json_text, run_audit)
from loopsim.engine import EVENT_BURST_HIT_W, EVENT_MASKED, burst_stats, run
from loopsim.engine.core import MAX_STEPS
from loopsim.swarm import run_swarm

def strict_loads(text):
    """The JSON document ``text``, refusing NaN and Infinity."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def strict_json(path):
    return strict_loads(path.read_text(encoding="utf-8"))


def invoke(tmp_path, text, verb="run"):
    """`loopsim <verb>` on a config file holding ``text``, writing to tmp_path/out."""
    config = tmp_path / "config.ini"
    config.write_text(text)
    return CliRunner().invoke(main, [verb, str(config), "--out", str(tmp_path / "out")])


def builtin(name, fields=(), **attrs):
    """The builtin scenario ``name`` with ``fields`` set and ``attrs`` replaced."""
    base = next(s for s in builtin_scenarios() if s.name == name)
    return dataclasses.replace(
        base, fields=tuple(sorted({**dict(base.fields), **dict(fields)}.items())), **attrs)


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
    if isinstance(default, int):  # a seed, or a swarm horizon that check_horizon bounds
        return str(draw(st.integers(least or 1, 10**6)))
    return repr(draw(st.floats(allow_nan=False, allow_infinity=False)))


@st.composite
def scenario_lists(draw):
    """Valid scenarios: builtins with runner fields, checks, outputs, repeats
    and a seed sweep drawn from their kind's field and check tables (no
    STATIC-only check on a RELAY swarm)."""
    scenarios = []
    for i in range(draw(st.integers(1, 4))):
        base = draw(st.sampled_from(builtin_scenarios()))
        kind = KINDS[base.kind]
        fields = dict(base.fields)
        for key, (default, least) in kind.fields.items():
            if draw(st.booleans()):
                fields[key] = _field_text(draw, default, least)
        relay = fields.get("gain_mode") == "RELAY"
        checks = sorted(name for name, check in kind.checks.items()
                        if not (relay and check in STATIC_ONLY))
        seeds = draw(st.lists(st.integers(0, 999), max_size=3))
        scenarios.append(Scenario(
            name=f"s{i}", kind=base.kind, fields=tuple(sorted(fields.items())),
            sweep=(("seed", tuple(map(str, seeds))),) if seeds else (),
            repeat=draw(st.integers(1, 3)),
            outputs=tuple(draw(st.lists(st.sampled_from(VALID_OUTPUTS), unique=True))),
            checks=tuple(draw(st.lists(st.sampled_from(checks), unique=True))
                         if checks else ())))
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
        written = strict_json(tmp_path / "tiny.summary.json")["runs"][0]
        assert written["final_norm"] is None and written["total_flops"] is None
        rows = (tmp_path / "tiny" / "base__seed1.csv").read_text().splitlines()
        assert len(rows) == entry["steps"] + 1
        assert rows[-1].endswith(",OVERFLOW")
        assert summary["failures"] == 1
        svg = (tmp_path / "tiny" / "base__seed1.svg").read_text()
        assert "nan" not in svg and "inf" not in svg

    @pytest.mark.parametrize("gamma", ["inf"])
    def test_a_non_finite_threshold_draws_no_line(self, tmp_path, gamma):
        result = invoke(tmp_path, MINIMAL.replace("gamma = 10\n", f"gamma = {gamma}\n")
                                  .replace("checks = drift", "checks = bounded"))
        assert result.exit_code == 0, result.output
        svg = (tmp_path / "out" / "tiny" / "base__seed1.svg").read_text()
        assert "nan" not in svg and "inf" not in svg
        assert 'stroke="red"' not in svg
        # The threshold does not bound the axes: the rising norm is not flat.
        polyline, = ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}polyline")
        ys = {point.split(",")[1] for point in polyline.get("points").split()}
        assert len(ys) > 1

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
            bounded, drift = _verdicts(RUN_CHECKS, ("bounded", "drift"), traj, {})
        assert bounded["status"] == "FAIL"
        assert drift["status"] == "PASS"
        assert drift["detail"]["overflow_step"] == 3_174
        assert math.isfinite(drift["detail"]["mean_drift"])

    def test_a_failed_write_keeps_the_old_file_and_no_temporary(self, tmp_path, monkeypatch):
        target = tmp_path / "a.json"
        target.write_text("old", encoding="utf-8")
        write_text = pathlib.Path.write_text

        def torn_write(self, text, *args, **kwargs):
            write_text(self, text[:3], *args, **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(pathlib.Path, "write_text", torn_write)
        with pytest.raises(OSError, match="disk full"):
            _atomic_write(target, "new contents")
        assert [p.name for p in tmp_path.iterdir()] == ["a.json"]
        assert target.read_text(encoding="utf-8") == "old"

    def test_json_text_writes_non_finite_floats_as_null(self):
        doc = {"a": [math.inf, -math.inf, math.nan, 1.5], "b": {"c": (math.inf, 2)}}
        assert strict_loads(json_text(doc)) == {"a": [None, None, None, 1.5],
                                                "b": {"c": [None, 2]}}

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
        scenario = builtin(base_name, overrides, sweep=(), repeat=1, outputs=("json",),
                           checks=(check,))
        summary = run_scenario(scenario, tmp_path)
        verdict, = summary["runs"][0]["checks"]
        assert (verdict["name"], verdict["status"]) == (check, expected)

    @pytest.mark.parametrize("check,old,new", [
        ("bounded", "", ""),                   # starts above gamma
        ("bursts", "", ""),                    # not a WINDOWED run
        ("time_bound", "seed = 1", "seed = 1\nbound_target = 5"),  # below the crossing
        ("sublinear_growth", "horizon = 50", "horizon = 1"),
        ("fixed_point", "", ""),               # an ABSTRACT run
    ])
    def test_rejected_run_fails_naming_the_reason(self, tmp_path, check, old, new):
        text = MINIMAL.replace("checks = drift", f"checks = {check}").replace(old, new)
        summary = run_scenario(parse_scenarios(text)[0], tmp_path)
        verdict, = summary["runs"][0]["checks"]
        assert verdict["status"] == "FAIL" and verdict["detail"]["error"]

    def test_time_bound_without_a_crossing_fails_as_drift_does(self, tmp_path):
        text = (MINIMAL.replace("initial_norm = 11", "initial_norm = 0")
                .replace("checks = drift", "checks = drift,time_bound"))
        summary = run_scenario(parse_scenarios(text)[0], tmp_path)
        drift, time_bound = summary["runs"][0]["checks"]
        assert time_bound["status"] == "FAIL"
        assert time_bound["detail"] == drift["detail"] == {"error": "norm never exceeded 10.0"}

    @staticmethod
    def _finite_time(**fields):
        return builtin("finite_time", fields, sweep=(), repeat=1, outputs=("json",),
                       checks=("time_bound",))

    # Each read FAIL under a bound of t* + ceil(88 / (delta * (1 - eps) * gamma)),
    # the mean drift applied to one run: 15-18 of 50 seeds fail that way.
    @pytest.mark.parametrize("eps0,seed", [
        ("0.1", 1004), ("0.1", 1005), ("0.3", 1002), ("0.5", 1003), ("0.5", 1004)])
    def test_time_bound_counts_the_steps_that_add(self, tmp_path, eps0, seed):
        scenario = self._finite_time(horizon="200", eps0=eps0, seed=str(seed))
        verdict, = run_scenario(scenario, tmp_path)["runs"][0]["checks"]
        assert verdict["status"] == "PASS", verdict["detail"]

    def test_one_adding_step_too_many_fails_time_bound(self):
        # Masked at steps 13, 14 and 16, this run reaches the target on the
        # last step its bound allows; unmask one of them and it is a step late.
        traj = run(build_run_config(self._finite_time(horizon="200", eps0="0.1", seed="1004")))
        fields = {"bound_target": 100.0}
        assert RUN_CHECKS["time_bound"](traj, fields) == (
            "PASS", {"t_star": 7, "bound": 19, "observed": 19})
        events = traj.events.copy()
        assert events[13] & EVENT_MASKED
        events[13] ^= EVENT_MASKED
        assert RUN_CHECKS["time_bound"](dataclasses.replace(traj, events=events), fields) == (
            "FAIL", {"t_star": 7, "bound": 18, "observed": 19})

    def test_one_adding_step_one_ulp_below_the_floor_fails_drift(self):
        # Every step of the builtin drift run adds exactly delta * gamma = 5.
        traj = run(build_run_config(builtin("drift", {"horizon": "100"})))
        status, detail = RUN_CHECKS["drift"](traj, {})
        assert (status, detail["min_margin"]) == ("PASS", 0.0)
        delta = traj.delta.copy()
        delta[50] = np.nextafter(5.0, 0.0)
        status, detail = RUN_CHECKS["drift"](dataclasses.replace(traj, delta=delta), {})
        assert (status, detail["min_margin"]) == ("FAIL", np.nextafter(5.0, 0.0) - 5.0)

    def test_one_adding_step_too_many_fails_bursts(self):
        # Masked at step 31, the gap from the burst at 26 to the one at 36 holds
        # exactly gap_bound = 9 adding steps; unmask it and it holds 10.
        traj = run(build_run_config(builtin("bursts", {"eps0": "0.1", "horizon": "300"})))
        assert RUN_CHECKS["bursts"](traj, {})[0] == "PASS"
        assert burst_stats(traj).gaps[2] == burst_stats(traj).gap_bound == 9
        hits = np.nonzero(traj.events & EVENT_BURST_HIT_W)[0]
        assert hits[2:4].tolist() == [26, 36] and traj.events[31] & EVENT_MASKED
        events = traj.events.copy()
        events[31] ^= EVENT_MASKED
        edited = dataclasses.replace(traj, events=events)
        assert burst_stats(edited).gaps[2] == 10
        assert RUN_CHECKS["bursts"](edited, {})[0] == "FAIL"

    def test_a_drift_floor_past_the_largest_float_fails_naming_it(self, tmp_path):
        # delta * gamma = 1e308 * 10 overflows; the check itself must not warn.
        text = MINIMAL.replace("delta = 1.0", "delta = 1e308")
        summary = run_scenario(parse_scenarios(text)[0], tmp_path)
        verdict, = summary["runs"][0]["checks"]
        assert verdict["status"] == "FAIL"
        assert verdict["detail"]["error"] == "drift floor delta * gamma = inf is not finite"

    @pytest.mark.parametrize("fields,gap_bound", [
        ({"delta": "0.5"}, 18),
        ({"delta": "2.0"}, 5),
        # A masked step adds nothing. Counted over the steps that add, a gap is
        # at most ceil((100 - 11) / (delta * gamma)) = 9; raw gaps reach 14-17.
        ({"eps0": "0.1"}, 9),
        ({"mask_kind": "POWER_LAW", "eps0": "0.1", "kappa": "0.4", "alpha_decay": "0.5"}, 9),
    ], ids=["0.5-18", "2.0-5", "masked-9", "power_law_masked-9"])
    def test_bursts_gap_bound_reads_delta(self, tmp_path, fields, gap_bound):
        scenario = builtin("bursts", fields, repeat=5, outputs=("json",))
        for entry in run_scenario(scenario, tmp_path)["runs"]:
            verdict, = entry["checks"]
            assert verdict["status"] == "PASS" and verdict["detail"]["gap_bound"] == gap_bound

    def _relay(self, tmp_path, **fields):
        scenario = builtin("swarm_relay", fields, outputs=("json",),
                           checks=("divergence", "collective_gain"))
        entry = run_scenario(scenario, tmp_path)["runs"][0]
        written = strict_json(tmp_path / "swarm_relay.summary.json")["runs"][0]
        assert written["final_norms"] == [
            n if math.isfinite(n) else None for n in entry["final_norms"]]
        return entry

    def test_critical_swarm_reads_info(self, tmp_path):
        entry = self._relay(tmp_path, beta="0,0;0,0", gamma="10")
        divergence, gain = entry["checks"]
        assert divergence["status"] == "INFO" and divergence["detail"]["rho"] == 1.0
        # The broadcast bound is a STATIC one: a RELAY swarm is not held to it.
        assert gain["status"] == "FAIL" and "STATIC gains only" in gain["detail"]["error"]

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
        scenario = builtin("onebit")
        summary = run_scenario(scenario, tmp_path)
        csv_path = tmp_path / "onebit" / "base__seed1.csv"
        rows = csv_path.read_text().splitlines()[1:]
        assert len(rows) == 32
        assert all(row.split(",")[1] == "1" for row in rows)  # 1-bit context
        assert summary["failures"] == 0

    def test_tokens_classification_contrast(self, tmp_path):
        scenario = builtin("tokens")
        summary = run_scenario(scenario, tmp_path)
        by_label = {e["label"]: e for e in summary["runs"]}
        hot = by_label["temperature=1.0"]
        cold = by_label["temperature=0.0"]
        assert hot["classification"] == "DIVERGENT"
        assert cold["classification"] == "CONVERGED"
        assert cold["checks"][0]["detail"]["fixed_point_step"] <= 2

    def test_prototype_histories(self, tmp_path):
        scenario = builtin("prototype")
        summary = run_scenario(scenario, tmp_path)
        statuses = {v["name"]: v["status"] for v in summary["runs"][0]["checks"]}
        assert statuses["prototype_overwrite_binary"] == "PASS"
        assert statuses["prototype_cumulative_monotone"] == "PASS"


class TestConjecture:
    def test_fit_fields_and_point_count(self):
        from loopsim.cli import conjecture_experiment
        fit = conjecture_experiment(builtin("conjecture_log"))
        assert len(fit["points"]) == 5
        assert fit["slope"] > 0.0
        assert fit["r_squared"] > 0.9
        assert 0.0 <= fit["r_squared"] <= 1.0

    def test_flat_control_has_no_trend(self):
        from loopsim.cli import conjecture_experiment
        fit = conjecture_experiment(builtin("conjecture_flat"))
        assert abs(fit["slope"]) < 0.5

    def test_report_reads_a_fit_as_one_info_row(self, tmp_path):
        result = CliRunner().invoke(main, ["conjecture", "builtin", "--scenario",
                                           "conjecture_flat", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        result = CliRunner().invoke(main, ["report", str(tmp_path)])
        assert result.exit_code == 0
        rows = result.output.splitlines()[1:-1]
        assert [row.split()[:4] for row in rows] == [
            ["conjecture_flat", "conjecture", "conjecture_fit", "INFO"]]

    @pytest.mark.parametrize("binding", ["gamma", "none"])
    def test_a_nan_budget_exits_two(self, tmp_path, binding):
        path = tmp_path / "nan.ini"
        path.write_text(MINIMAL + f"budgets = 50,nan,200\nbudget_binding = {binding}\n")
        result = CliRunner().invoke(main, ["conjecture", str(path)])
        assert result.exit_code == 2
        assert "error: scenario 'tiny': budgets must be positive" in result.output

    def test_needs_three_distinct_budgets(self):
        from loopsim.cli import conjecture_experiment
        with pytest.raises(ValueError, match="3 distinct"):
            conjecture_experiment(builtin("conjecture_log", {"budgets": "100,100,100"}))


class TestCliVerbs:
    def test_run_exit_zero(self, tmp_path):
        result = CliRunner().invoke(
            main, ["run", "builtin", "--scenario", "drift",
                   "--out", str(tmp_path)])
        assert result.exit_code == 0

    def test_import_loads_no_network_or_pool_modules(self):
        child = ("import sys, loopsim.cli.main; print(*sorted(m for m in sys.modules if m in "
                 "{'xml.sax', 'urllib.request', 'http.client', 'ssl', 'email', "
                 "'concurrent.futures.process'}))")
        src = str(pathlib.Path(loopsim.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        result = subprocess.run([sys.executable, "-c", child], capture_output=True,
                                text=True, timeout=120, env=env)
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout.split() == []

    def test_fixed_point_on_an_abstract_run_fails_naming_concrete(self, tmp_path):
        result = invoke(tmp_path, MINIMAL.replace("checks = drift", "checks = fixed_point"))
        assert result.exit_code == 1, result.output
        verdict, = strict_json(tmp_path / "out" / "tiny.summary.json")["runs"][0]["checks"]
        assert verdict["status"] == "FAIL" and "CONCRETE" in verdict["detail"]["error"]

    def test_run_failure_exits_one(self, tmp_path):
        result = invoke(tmp_path, MINIMAL.replace("initial_norm = 11", "initial_norm = 0"))
        assert result.exit_code == 1

    def test_concrete_norm_past_the_largest_float_is_a_flagged_run(self, tmp_path):
        result = invoke(tmp_path, "[meta]\nschema = 1\n\n[scenario:runaway]\nkind = run\n"
                                  "mode = CONCRETE\npsi_kind = IDENTITY\n"
                                  "update_kind = DELTA_MONOTONE\ndelta = 1e308\n"
                                  "measure_kind = POWER_LAW\nbeta_pow = 2\nhorizon = 5\n")
        assert result.exit_code == 0, result.output
        rows = (tmp_path / "out" / "runaway" / "base__seed0.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[-1].endswith(";OVERFLOW")

    def test_parse_error_exits_two(self, tmp_path):
        result = invoke(tmp_path, "[meta]\nschema = 1\n\n[scenario:x]\nkind = run\n"
                                  "gamma = nope\nhorizon = 1\n")
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

    @pytest.mark.parametrize("measure, samples", [
        ("length", "0"), ("lz_reuse", "-5"), ("skl", str(MAX_STEPS + 1)),
        ("skl", "100000000000")])
    def test_audit_sample_count_out_of_range_exits_two(self, tmp_path, monkeypatch,
                                                        measure, samples):
        def refuse(*args, **kwargs):
            raise AssertionError("the audit started")

        monkeypatch.setattr("loopsim.cli.main.run_audit", refuse)
        result = CliRunner().invoke(main, ["audit", measure, "--samples", samples,
                                           "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "Invalid value for '--samples'" in result.output
        assert not list(tmp_path.iterdir())

    def test_a_failed_audit_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        args = ["audit", "length", "--samples", "50", "--out", str(tmp_path)]
        assert CliRunner().invoke(main, args).exit_code == 0
        path = tmp_path / "length.audit.json"
        before = path.read_text()

        def half_then_full_disk(self, text, encoding=None):
            with open(self, "w", encoding=encoding) as out:
                out.write(text[:len(text) // 2])
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(pathlib.Path, "write_text", half_then_full_disk)
        result = CliRunner().invoke(main, args + ["--seed", "1"])
        assert isinstance(result.exception, OSError)
        assert path.read_text() == before

    def test_gamma_star_verb(self):
        result = CliRunner().invoke(
            main, ["gamma-star", "builtin", "--scenario", "tightness"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert abs(doc["gamma_star"] - 50.0) <= 2.5
        assert doc["verdicts"][0]["status"] == "PASS"

    @pytest.mark.parametrize("old,new,code,status", [
        ("bracket_hi = 100", "bracket_hi = 40", 1, "FAIL"),  # the gate at 50 lies outside
        ("psi_kind = GATED", "psi_kind = IDENTITY", 0, "INFO"),  # no gate declared
    ], ids=["missed_gate", "no_gate"])
    def test_gamma_star_verdict_and_exit_code(self, tmp_path, old, new, code, status):
        path = tmp_path / "tightness.ini"
        path.write_text(emit_scenarios([builtin("tightness")]).replace(old, new))
        result = CliRunner().invoke(main, ["gamma-star", str(path)])
        assert result.exit_code == code
        [verdict] = strict_loads(result.output)["verdicts"]
        assert verdict["name"] == "gamma_star" and verdict["status"] == status

    def test_report_lists_gamma_star_under_its_scenario(self, tmp_path):
        CliRunner().invoke(main, ["gamma-star", "builtin", "--scenario", "tightness",
                                  "--out", str(tmp_path)])
        result = CliRunner().invoke(main, ["report", str(tmp_path)])
        assert result.exit_code == 0
        row = result.output.splitlines()[1].split()
        assert row[:4] == ["tightness", "gamma-star", "gamma_star", "PASS"]

    @pytest.mark.parametrize("line", ["gain_mode = RELAY", "sweep_gain_mode = STATIC,RELAY"],
                             ids=["relay", "swept"])
    def test_collective_gain_on_a_relay_swarm_exits_two(self, tmp_path, line):
        result = invoke(tmp_path, "[meta]\nschema = 1\n\n[scenario:relay]\nkind = swarm\n"
                                  "beta = 0 0.5; 0.5 0\ngamma = 100\nchecks = collective_gain\n"
                                  + line + "\n")
        assert result.exit_code == 2
        assert "scenario 'relay': check 'collective_gain'" in result.output
        assert not (tmp_path / "out").exists()

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
        ("conjecture", "budget_binding",
         MINIMAL + "budgets = 50,100,200\nbudget_binding = gama\n"),
        # Each sizes a list: 10**10 steps of history, or 10**10 floats a probe.
        ("run", "steps", "[meta]\nschema = 1\n\n[scenario:tiny]\nkind = prototype\n"
                         "steps = 10000000000\n"),
        ("gamma-star", "mc_samples", MINIMAL + "bracket_lo = 1\nmc_samples = 10000000000\n"),
        # inf ended time_bound in an OverflowError traceback, nan in a FAIL naming int(nan).
        *(("run", "bound_target", MINIMAL + f"bound_target = {value}\n")
          for value in ("inf", "nan", "-inf")),
    ], ids=["bound_target", "rank", "swarm_horizon", "iterations", "budget_binding",
            "steps", "mc_samples", "bound_target_inf", "bound_target_nan", "bound_target_-inf"])
    def test_bad_runner_field_exits_two_naming_it(self, tmp_path, verb, field, text):
        result = invoke(tmp_path, text, verb)
        assert result.exit_code == 2
        assert f"scenario 'tiny', field {field!r}" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("log_coeff", ["inf", "1e308"])
    def test_a_log_rank_past_the_largest_float_costs_inf_flops(self, tmp_path, log_coeff):
        # The rank's ceil used to end the run in an OverflowError traceback.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = invoke(tmp_path, MINIMAL + f"cost_variant = LOG_RANK\nlog_coeff = {log_coeff}")
        assert result.exit_code == 0, result.output
        rows = (tmp_path / "out" / "tiny" / "base__seed1.csv").read_text().splitlines()
        assert {row.split(",")[5] for row in rows[1:]} == {"inf"}

    @pytest.mark.parametrize("line,field", [
        ("gama = 5", "gama"), ("horizn = 100", "horizn"), ("sweep_gama = 1,2", "gama"),
        ("schedule = SYNCHRONOUS", "schedule"),  # a swarm field on a run scenario
        ("c1 = 1", "c1"),
    ])
    def test_unknown_field_exits_two_naming_it(self, tmp_path, line, field):
        result = invoke(tmp_path, MINIMAL + line + "\n")
        assert result.exit_code == 2
        assert f"scenario 'tiny', field {field!r}: unknown field" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lines", [
        "mode = CONCRETE\npsi_kind = DECAYING\ndecay_len = 1e300\n",
        "mode = CONCRETE\npsi_kind = DECAYING\ndecay_len = 1e10\n",
        "mode = ABSTRACT\npsi_kind = DECAYING\ndecay_len = inf\n",
        "mode = CONCRETE\npsi_kind = MIRROR\ninitial_norm = 1e300\n",
    ], ids=["decay_len_1e300", "decay_len_1e10", "decay_len_inf", "mirror_from_1e300"])
    def test_a_meaning_past_max_symbols_exits_two_naming_it(self, tmp_path, lines):
        result = invoke(tmp_path, "[meta]\nschema = 1\n\n[scenario:tiny]\nkind = run\n"
                                  "update_kind = OVERWRITE\nhorizon = 3\n" + lines)
        assert result.exit_code == 2
        assert "error: scenario 'tiny': " in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lines", [
        "psi_kind = MIRROR\ninitial_norm = inf\n",
        "psi_kind = IDENTITY\ninitial_norm = inf\n",
        "psi_kind = MIRROR\ninitial_norm = nan\n",
        "psi_kind = IDENTITY\ninitial_norm = nan\n",
        "psi_kind = GATED\ngamma_true = 5\ngain_hi = 2\ninitial_norm = nan\n",
    ], ids=["mirror_inf", "identity_inf", "mirror_nan", "identity_nan", "gated_nan"])
    def test_a_non_finite_initial_norm_exits_two_naming_it(self, tmp_path, lines):
        result = invoke(tmp_path, "[meta]\nschema = 1\n\n[scenario:tiny]\nkind = run\n"
                                  "mode = ABSTRACT\nupdate_kind = OVERWRITE\nhorizon = 3\n" + lines)
        assert result.exit_code == 2
        assert "error: scenario 'tiny': " in result.output
        assert "initial_norm must be nonnegative and finite" in result.output
        assert not (tmp_path / "out").exists()

    def test_a_run_past_max_steps_exits_two_naming_the_horizon(self, tmp_path):
        # 1e10 steps of columns would be 74.5 GiB: refused by arithmetic, before any array.
        result = invoke(tmp_path, MINIMAL.replace("horizon = 50", "horizon = 10000000000"))
        assert result.exit_code == 2
        assert f"scenario 'tiny': horizon must be at most {MAX_STEPS}" in result.output
        assert not (tmp_path / "out").exists()

    def test_a_swarm_past_max_steps_exits_two_naming_the_horizon(self, tmp_path):
        text = ("[meta]\nschema = 1\n\n[scenario:tiny]\nkind = swarm\n"
                "beta = 0 0.5; 0.5 0\ngamma = 100\nhorizon = 10000000000\n")
        result = invoke(tmp_path, text)
        assert result.exit_code == 2
        assert (f"scenario 'tiny', field 'horizon': k * horizon must be at most "
                f"{MAX_STEPS} agent-ticks") in result.output
        assert not (tmp_path / "out").exists()
        # A library caller is refused the same way, by run_swarm itself.
        spec = build_swarm_spec(parse_scenarios(text.replace("10000000000", "1"))[0])
        with pytest.raises(ValueError, match="agent-ticks"):
            run_swarm(spec, MAX_STEPS // 2 + 1)

    @pytest.mark.parametrize("lines,reason", [
        ("measure_kind = POWER_LAW\nbeta_pow = nan\n", "power-law exponent must exceed 1"),
        ("mode = ABSTRACT\ninitial_symbols = 0101\n", "initial_symbols"),
        ("mode = CONCRETE\npsi_kind = IDENTITY\ninitial_norm = 7\n", "initial_symbols"),
        ("gamma = nan\n", "gamma must be positive"),
        ("psi_kind = GATED\ngamma_true = nan\n", "gamma_true must be a number"),
        ("temperature = nan\n", "temperature must be nonnegative"),
        ("update_kind = DELTA_MONOTONE\ndelta = nan\n", "delta must be positive"),
        ("update_kind = DELTA_MONOTONE\ndelta = inf\n", "delta must be positive and finite"),
    ], ids=["beta_pow_nan", "abstract_symbols", "concrete_norm_without_symbols",
            "gamma_nan", "gamma_true_nan", "temperature_nan", "delta_nan", "delta_inf"])
    def test_an_invalid_measure_or_start_exits_two_naming_it(self, tmp_path, lines, reason):
        result = invoke(tmp_path, "[meta]\nschema = 1\n\n[scenario:tiny]\nkind = run\n"
                                  "horizon = 3\n" + lines)
        assert result.exit_code == 2
        assert "error: scenario 'tiny': " in result.output and reason in result.output
        assert not (tmp_path / "out").exists()

    def test_summary_is_written_without_json_output(self, tmp_path):
        invoke(tmp_path, MINIMAL.replace("csv,json,svg", "csv")
                         .replace("initial_norm = 11", "initial_norm = 0"))
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
