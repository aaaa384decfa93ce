"""Scenario execution: sweeps, seeds, artifacts, verdicts, reports.

Every (sweep point, seed) pair is an independent job producing one trajectory
and its requested artifacts; files are written atomically (temp file plus
rename). A scenario summary JSON collects the per-run facts and check
verdicts; `report` folds summaries from a directory into one table with a
process exit code.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import os
import re
from enum import Enum
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from ..channel import PsiKind
from ..cost import CostVariant, cumulative_compute
from ..engine import (
    PrototypeMode,
    burst_stats,
    detect_fixed_point,
    divergence_time_bound,
    estimate_gamma_star,
    run,
    run_prototype,
    verify_bounded,
    verify_drift,
)
from ..engine.checks import adding_steps, crossing_step, drift_bounds, sublinear_growth_report
from ..measures import (
    audit_lz_dictionary_reuse,
    audit_measure,
    audit_skl_pairs,
    compression_gain_measure,
    declared_measure,
    fisher_measure,
    length_measure,
    power_measure,
)
from ..meanings import Meaning
from ..swarm import check_collective_gain, predict_and_verify_divergence, run_swarm
from .config import Scenario, build_run_config, build_swarm_spec, runner_fields
from .plots import svg_line_plot

PASS = "PASS"
FAIL = "FAIL"
INFO = "INFO"
DOCUMENTED = "COUNTEREXAMPLE FOUND (documented)"

# Criterion 3's window: gamma-star passes within 5 % of a GATED channel's gate.
GAMMA_STAR_TOLERANCE = 0.05

SUMMARY_SCHEMA = 1


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _finite(value):
    """``value`` with every non-finite float, at any depth, made None."""
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def json_text(doc: dict) -> str:
    """``doc`` as strict JSON: a non-finite float is written as null."""
    return json.dumps(_finite(doc), indent=2, allow_nan=False)


def _csv_text(write, *args) -> str:
    buffer = io.StringIO()
    write(*args, buffer)
    return buffer.getvalue()


def _slug(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9._=+-]+", "-", label) if label else "base"


def _verdict(name, status, detail):
    return {"name": name, "status": status, "detail": detail}


def _status(passed) -> str:
    return PASS if passed else FAIL


def _verdicts(table, names, *args) -> list[dict]:
    """The verdicts of the checks `names` of `table`, each given `args`.

    A check whose verifier rejects the run (a `PreconditionError`: no
    crossing, a start above the threshold, a run its rule or mode does not
    fit) or its numbers (any other ValueError) fails, naming the reason.
    """
    verdicts = []
    for name in names:
        try:
            status, detail = table[name](*args)
        except ValueError as exc:
            status, detail = FAIL, {"error": str(exc)}
        verdicts.append(_verdict(name, status, detail))
    return verdicts


# Run checks: each takes the trajectory, which carries its config, and the
# scenario's runner fields, and returns a status and the verdict's detail.

def _drift(traj, fields):
    report = verify_drift(traj)
    overflow = {} if report.overflow_step is None else {"overflow_step": report.overflow_step}
    return _status(report.passed), dict(
        t0=report.t0, min_margin=report.min_margin,
        mean_drift=report.mean_drift, mean_bound=report.mean_bound, **overflow)


def _bounded(traj, fields):
    report = verify_bounded(traj)
    return _status(report.passed), dict(max_norm=report.max_norm, gamma=traj.config.gamma)


def _bursts(traj, fields):
    report = burst_stats(traj)
    return _status(report.passed and report.bursts > 0), dict(
        bursts=report.bursts, max_norm=report.max_norm, gap_bound=report.gap_bound)


def _fixed_point(traj, fields):
    step = detect_fixed_point(traj)
    return INFO, dict(fixed_point_step=step,
                      classification="CONVERGED" if step is not None else "DIVERGENT")


def _cost_slope(traj, fields):
    cfg = traj.config
    window = (100, min(cfg.horizon, 10_000))
    full = cumulative_compute(traj, cfg.cost_model, window)
    low_rank = dataclasses.replace(cfg.cost_model, variant=CostVariant.LOW_RANK,
                                   rank=fields["rank"])
    low = cumulative_compute(traj, low_rank, window)
    ok = abs(full.slope - 2.0) <= 0.1 and abs(low.slope - 1.0) <= 0.1
    return _status(ok), dict(full_slope=full.slope, low_rank_slope=low.slope)


def _time_bound(traj, fields):
    target = fields["bound_target"]
    t_star = crossing_step(traj)
    floor, _ = drift_bounds(traj.config)
    bound = divergence_time_bound(t_star, float(traj.norms[t_star]), target, floor)
    reached = np.nonzero(traj.norms >= target)[0]
    observed = int(reached[0]) if len(reached) else None
    # A masked or frozen step adds nothing: it moves the bound a step later.
    bound += int((~adding_steps(traj)[t_star:observed]).sum())
    ok = observed is not None and observed <= bound
    return _status(ok), dict(t_star=t_star, bound=bound, observed=observed)


def _sublinear_growth(traj, fields):
    return INFO, sublinear_growth_report(traj, max(1, traj.steps // 10), traj.steps)


RUN_CHECKS = {"drift": _drift, "bounded": _bounded, "bursts": _bursts,
              "fixed_point": _fixed_point, "cost_slope": _cost_slope,
              "time_bound": _time_bound, "sublinear_growth": _sublinear_growth}


# Swarm checks: each takes the trajectory alone.

def _collective_gain(traj):
    report = check_collective_gain(traj)
    return _status(report.passed), dict(
        collective_mean=report.collective_mean,
        collective_bound=report.collective_bound,
        per_agent=[(c.mean_delta, c.bound) for c in report.per_agent])


def _divergence(traj):
    report = predict_and_verify_divergence(traj.spec, traj.steps, traj.seed)
    ok = report.flagged_divergent and bool(report.growth_ok)
    status = _status(ok) if report.rho > 1.0 else INFO
    return status, dict(rho=report.rho, slope=report.slope,
                        crossed=report.crossed, crossing_step=report.crossing_step)


SWARM_CHECKS = {"collective_gain": _collective_gain, "divergence": _divergence}
# The checks whose bound holds for STATIC gains only: refused on a RELAY swarm at load.
STATIC_ONLY = (_collective_gain,)


def _execute_run_job(scenario, label, overrides, seed, outdir):
    fields = runner_fields(scenario, _RUN_FIELDS, overrides)
    cfg = build_run_config(scenario, overrides, seed=seed)
    traj = run(cfg)
    entry = {
        "label": label or "base",
        "seed": seed,
        "steps": traj.steps,
        "final_norm": traj.final_norm,
        "crossing_step": traj.first_crossing(cfg.gamma),
        "total_flops": traj.total_flops,
        "checks": _verdicts(RUN_CHECKS, scenario.checks, traj, fields),
    }
    for verdict in entry["checks"]:
        if "classification" in verdict["detail"]:
            entry["classification"] = verdict["detail"]["classification"]
    stem = f"{_slug(label)}__seed{seed}"
    if "csv" in scenario.outputs:
        path = outdir / f"{stem}.csv"
        _atomic_write(path, _csv_text(traj.write_csv))
        entry["csv"] = path.name
    if "svg" in scenario.outputs:
        path = outdir / f"{stem}.svg"
        _atomic_write(path, svg_line_plot(
            traj.norms, threshold=cfg.gamma,
            title=f"{scenario.name} {label or ''} seed {seed}".strip()))
        entry["svg"] = path.name
    return entry


def _execute_swarm_job(scenario, label, overrides, seed, outdir):
    spec = build_swarm_spec(scenario, overrides)
    horizon = runner_fields(scenario, _SWARM_FIELDS, overrides)["horizon"]
    traj = run_swarm(spec, horizon, seed=seed)
    entry = {
        "label": label or "base",
        "seed": seed,
        "steps": traj.steps,
        "final_norms": [float(n) for n in traj.norm[:, -1]],
        "crossing_step": traj.first_crossing(spec.gamma),
        "checks": _verdicts(SWARM_CHECKS, scenario.checks, traj),
    }
    if traj.overflow_tick is not None:
        entry["overflow_tick"] = traj.overflow_tick
    stem = f"{_slug(label)}__seed{seed}"
    if "csv" in scenario.outputs:
        for agent in range(spec.k):
            _atomic_write(outdir / f"{stem}__agent{agent}.csv",
                          _csv_text(traj.write_agent_csv, agent))
        path = outdir / f"{stem}__collective.csv"
        _atomic_write(path, _csv_text(traj.write_collective_csv))
        entry["csv"] = path.name
    if "svg" in scenario.outputs:
        path = outdir / f"{stem}.svg"
        _atomic_write(path, svg_line_plot(
            traj.norm.max(axis=0), threshold=spec.gamma,
            title=f"{scenario.name} max agent norm"))
        entry["svg"] = path.name
    return entry


def _execute_prototype_job(scenario, label, overrides, seed, outdir):
    fields = runner_fields(scenario, _PROTOTYPE_FIELDS, overrides)
    steps = fields["steps"]
    entry = {"label": label or "base", "seed": seed, "steps": steps, "checks": []}
    for mode in (PrototypeMode.OVERWRITE, PrototypeMode.CUMULATIVE):
        history = run_prototype(mode, steps=steps, gamma=fields["gamma"], seed=seed)
        if "csv" in scenario.outputs:
            rows = "\n".join(f"{t},{v}" for t, v in enumerate(history))
            _atomic_write(outdir / f"{_slug(label)}__seed{seed}__{mode.value.lower()}.csv",
                          "t,value\n" + rows + "\n")
        if mode is PrototypeMode.OVERWRITE:
            ok = set(history) <= {0, 1}
            entry["checks"].append(_verdict(
                "prototype_overwrite_binary", _status(ok), {"max_value": max(history)}))
        else:
            ok = all(b >= a for a, b in zip(history, history[1:]))
            entry["checks"].append(_verdict(
                "prototype_cumulative_monotone", _status(ok),
                {"final_value": history[-1]}))
    return entry


class BudgetBinding(str, Enum):
    """What a `conjecture` budget becomes: the crossing level, or nothing."""

    GAMMA = "GAMMA"
    NONE = "NONE"


# The fields each kind's runner reads beside its built specs, parsed at load:
# key -> (default, least allowed value).
_RUN_FIELDS = {
    "seed": (0, None),
    "rank": (4, 1),                  # cost_slope's LOW_RANK comparison
    "bound_target": (100.0, None),   # time_bound
    "bracket_lo": (1.0, None),       # gamma-star
    "bracket_hi": (100.0, None),
    "iterations": (20, 1),
    "mc_samples": (32, 1),
    "budgets": ((), None),           # conjecture
    "conjecture_seeds": (10, 1),
    "budget_binding": (BudgetBinding.GAMMA, None),
}
_SWARM_FIELDS = {"seed": (0, None), "horizon": (100, None)}  # bounded by check_horizon
_PROTOTYPE_FIELDS = {"seed": (0, None), "steps": (200, 1), "gamma": (10.0, None)}


class Kind(NamedTuple):
    build: Callable | None   # builds one sweep point's specs, at load and per job
    job: Callable            # runs one (sweep point, seed) pair
    checks: dict             # check name -> verdict function
    fields: dict             # the runner fields, as above


# Scenario kinds. A section that names no kind is of the first.
KINDS = {
    "run": Kind(build_run_config, _execute_run_job, RUN_CHECKS, _RUN_FIELDS),
    "swarm": Kind(build_swarm_spec, _execute_swarm_job, SWARM_CHECKS, _SWARM_FIELDS),
    "prototype": Kind(None, _execute_prototype_job, {}, _PROTOTYPE_FIELDS),
}


def _job(args):
    scenario, label, overrides, seed, outdir = args
    return KINDS[scenario.kind].job(scenario, label, overrides, seed, Path(outdir))


def run_scenario(scenario: Scenario, outdir, jobs: int = 1) -> dict:
    """Execute every (sweep point, seed) pair and write the summary JSON."""
    outdir = Path(outdir) / scenario.name
    outdir.mkdir(parents=True, exist_ok=True)
    fields = KINDS[scenario.kind].fields
    work = [
        (scenario, label, overrides,
         runner_fields(scenario, fields, overrides)["seed"] + r, str(outdir))
        for label, overrides in scenario.sweep_points()
        for r in range(scenario.repeat)
    ]
    if jobs > 1 and len(work) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool pays its import
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            entries = list(pool.map(_job, work))
    else:
        entries = [_job(item) for item in work]

    statuses = [v["status"] for e in entries for v in e["checks"]]
    summary = {
        "schema": SUMMARY_SCHEMA,
        "scenario": scenario.name,
        "kind": scenario.kind,
        "runs": entries,
        "failures": statuses.count(FAIL),
    }
    # Written whatever the outputs say, so that `report` sees every failure.
    _atomic_write(Path(outdir).parent / f"{scenario.name}.summary.json", json_text(summary))
    return summary


_FISHER_PROBE = (Meaning("1"), Meaning("0"))


def _tagged_sampler(draws):
    symbols = draws.corpus(16)  # default_sampler(draws, 16), then its tag
    return Meaning(symbols, tag="1" if draws.random() < 0.5 else "2")


# Measure audits: each takes the sample count and seed and returns verdicts.
# Expected, theory-documented findings (the short-string compression edge,
# score cancellation under the Fisher measure, dictionary-reuse slack) are
# reported as documented counterexamples; anything else that violates a hard
# axiom is a failure.

def _audit_length(samples, seed):
    report = audit_measure(length_measure(), samples=samples, seed=seed)
    return [_verdict("length_axioms", _status(report.clean), report.as_dict())]


def _audit_compression_gain(samples, seed):
    report = audit_measure(compression_gain_measure(), samples=samples, seed=seed)
    verdicts = [_verdict("compression_gain_nonnegative", _status(report.o1_violations == 0),
                         {"o1_violations": report.o1_violations})]
    if compression_gain_measure().evaluate(Meaning("0")) == 0.0:
        verdicts.append(_verdict("compression_gain_unit_floor", DOCUMENTED, dict(
            example="0", value=0.0,
            note="short strings gain nothing; opt-in unit floor available")))
    soft = report.o2_violations + report.o3_violations + \
        report.mii_monotone_violations
    if soft:
        verdicts.append(_verdict("compression_gain_tail_convention", DOCUMENTED,
                                 {"findings": soft}))
    return verdicts


def _audit_power_law(samples, seed):
    report = audit_measure(power_measure(2.0), samples=samples, seed=seed)
    hard = report.o1_violations + report.o2_violations
    return [_verdict("power_law_axioms", _status(hard == 0), dict(
        o1_violations=report.o1_violations, o2_violations=report.o2_violations))]


def _audit_fisher(samples, seed):
    report = audit_measure(fisher_measure(0.5), samples=samples, seed=seed,
                           probes=[_FISHER_PROBE])
    probe_found = any(c.inputs == ("1", "0") for c in report.violations("O2"))
    return [
        _verdict("fisher_nonnegative", _status(report.o1_violations == 0),
                 {"o1_violations": report.o1_violations}),
        _verdict("fisher_score_cancellation", DOCUMENTED if probe_found else FAIL,
                 {"o2_violations": report.o2_violations,
                  "example": "'1' + '0' at theta0=0.5"}),
    ]


def _audit_declared_bonus(samples, seed):
    spec = declared_measure({"1": 4.0, "2": 4.0},
                            {("1", "2"): 0.5, ("2", "1"): 0.5})
    report = audit_measure(spec, sampler=_tagged_sampler, samples=samples, seed=seed)
    return [_verdict("declared_bonus_axioms", _status(report.clean),
                     report.as_dict())]


def _audit_skl(samples, seed):
    result = audit_skl_pairs(samples=max(10, samples // 100), seed=seed)
    ok = result["negative_values"] == 0 and result["worst_asymmetry"] <= 1e-12
    return [_verdict("skl_pairs", _status(ok), result)]


def _audit_lz_reuse(samples, seed):
    findings = audit_lz_dictionary_reuse(samples=samples, seed=seed)
    return [_verdict("lz_dictionary_reuse", DOCUMENTED if findings else PASS, dict(
        findings=len(findings), examples=[list(f.inputs) for f in findings[:5]]))]


AUDITS = {"length": _audit_length, "compression_gain": _audit_compression_gain,
          "power_law": _audit_power_law, "fisher": _audit_fisher,
          "declared_bonus": _audit_declared_bonus, "skl": _audit_skl,
          "lz_reuse": _audit_lz_reuse}


def run_audit(measure: str, samples: int = 10_000, seed: int = 0) -> dict:
    """Audit one measure (a key of AUDITS) and classify its findings."""
    audit = AUDITS[measure]
    return {"schema": SUMMARY_SCHEMA, "audit": measure, "samples": samples,
            "verdicts": audit(samples, seed)}


def run_gamma_star(scenario: Scenario) -> dict:
    from .config import build_channel

    fields = runner_fields(scenario, _RUN_FIELDS)
    channel = build_channel(scenario)
    estimate = estimate_gamma_star(
        channel,
        lo=fields["bracket_lo"],
        hi=fields["bracket_hi"],
        iterations=fields["iterations"],
        mc_samples=fields["mc_samples"],
        seed=fields["seed"],
    )
    miss = abs(estimate.value - channel.gamma_true)
    status = (_status(miss <= GAMMA_STAR_TOLERANCE * channel.gamma_true)
              if channel.psi_kind is PsiKind.GATED else INFO)  # only GATED declares a gate
    return {
        "schema": SUMMARY_SCHEMA,
        "scenario": scenario.name,
        "gamma_star": estimate.value,
        "resolution": estimate.resolution,
        "iterations": estimate.iterations,
        "gamma_true": channel.gamma_true,
        "verdicts": [_verdict("gamma_star", status, {
            "gamma_star": estimate.value, "gamma_true": channel.gamma_true})],
    }


def conjecture_experiment(scenario: Scenario) -> dict:
    """Crossing-time-versus-budget fit.

    The scenario's `budgets` list supplies the grid; `budget_binding` says
    what a budget value becomes (`GAMMA`: the crossing level; `NONE`: inert,
    the control case). Runs that never cross are excluded and counted. The
    fit is ordinary least squares of mean crossing time against log budget;
    no verdict is attached.
    """
    fields = runner_fields(scenario, _RUN_FIELDS)
    budgets = fields["budgets"]
    if len(set(budgets)) < 3:
        raise ValueError("the budget grid needs at least 3 distinct values")
    if not all(budget > 0.0 for budget in budgets):
        raise ValueError("budgets must be positive")

    points = []
    excluded = 0
    for budget in budgets:
        overrides = {}
        if fields["budget_binding"] is BudgetBinding.GAMMA:
            overrides["gamma"] = repr(budget)
        crossings = []
        for r in range(fields["conjecture_seeds"]):
            cfg = build_run_config(scenario, overrides, seed=fields["seed"] + r)
            traj = run(cfg)
            t_star = traj.first_crossing(cfg.gamma)
            if t_star is None:
                excluded += 1
            else:
                crossings.append(t_star)
        if crossings:
            points.append((math.log(budget), float(np.mean(crossings))))

    if len(points) < 3:
        raise ValueError("fewer than 3 budgets produced crossings")
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    slope, intercept = np.polyfit(xs, ys, 1)
    residuals = ys - (slope * xs + intercept)
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r_squared = 0.0 if ss_tot == 0.0 else max(0.0, 1.0 - float(
        (residuals**2).sum()) / ss_tot)
    return {
        "schema": SUMMARY_SCHEMA,
        "scenario": scenario.name,
        "points": [[x, y] for x, y in points],
        "slope": float(slope),
        "intercept": float(intercept),
        "r_squared": min(1.0, r_squared),
        "excluded_no_crossing": excluded,
    }


def aggregate_reports(directory) -> dict:
    """Fold every summary/audit JSON under a directory into one verdict table.

    A file that cannot be read, parsed or understood is one FAIL row naming it.
    """
    directory = Path(directory)
    rows = []
    for path in sorted(directory.rglob("*.json")):
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(doc, dict):
                raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
            rows.extend(_document_rows(doc, path.stem))
        except (OSError, ValueError, TypeError, KeyError, AttributeError) as exc:
            rows.append({"source": path.stem, "run": "-", "check": "readable_json", "status": FAIL,
                         "detail": {"file": str(path.relative_to(directory)),
                                    "error": f"{type(exc).__name__}: {exc}"}})
    failures = sum(1 for r in rows if r["status"] == FAIL)
    return {"rows": rows, "failures": failures, "passed": failures == 0 and bool(rows)}


def _document_rows(doc: dict, stem: str) -> list[dict]:
    """Verdict rows of one summary or audit document; raises on a malformed one."""
    if "runs" in doc:
        source = doc.get("scenario", stem)
        return [_verdict_row(source, f"{entry.get('label', '')}/seed{entry.get('seed')}",
                             verdict)
                for entry in doc["runs"] for verdict in entry.get("checks", [])]
    if "verdicts" in doc:
        source, label = ((doc["audit"], "audit") if "audit" in doc
                         else (doc.get("scenario", stem), "gamma-star"))
        return [_verdict_row(source, label, verdict) for verdict in doc["verdicts"]]
    if "slope" in doc:
        return [_verdict_row(doc.get("scenario", stem), "conjecture", {
            "name": "conjecture_fit", "status": INFO,
            "detail": {"slope": doc["slope"], "r_squared": doc["r_squared"]}})]
    return []


def _verdict_row(source, run, verdict) -> dict:
    """One report row; raises TypeError on a field `format_report` cannot print."""
    row = {"source": source, "run": run, "check": verdict["name"],
           "status": verdict["status"], "detail": verdict.get("detail", {})}
    if not all(isinstance(row[key], str) for key in ("source", "check", "status")):
        raise TypeError("source, check name and status must be strings")
    if not isinstance(row["detail"], dict):
        raise TypeError("verdict detail must be an object")
    return row


_MARGIN_KEYS = ("file", "min_margin", "mean_drift", "max_norm", "bursts", "bound",
                "observed", "rho", "slope", "full_slope", "low_rank_slope",
                "fixed_point_step", "classification", "collective_mean",
                "gamma_star", "r_squared", "o1_violations", "findings")


def _margins(detail: dict) -> str:
    parts = []
    for key in _MARGIN_KEYS:
        if key in detail and detail[key] is not None:
            value = detail[key]
            parts.append(f"{key}={value:.4g}" if isinstance(value, float)
                         else f"{key}={value}")
        if len(parts) == 3:
            break
    return " ".join(parts)


def format_report(report: dict) -> str:
    lines = [f"{'SOURCE':20} {'RUN':24} {'CHECK':30} {'STATUS':34} MARGINS"]
    for row in report["rows"]:
        lines.append(
            f"{row['source'][:20]:20} {row['run'][:24]:24} "
            f"{row['check'][:30]:30} {row['status']:34} "
            f"{_margins(row['detail'])}")
    lines.append(
        f"-- {len(report['rows'])} verdicts, {report['failures']} failures")
    return "\n".join(lines)
