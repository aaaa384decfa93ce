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
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from ..channel import epsilon_at
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
from ..engine.checks import NoCrossingError, sublinear_growth_report
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
from .config import Scenario, build_run_config, build_swarm_spec
from .plots import svg_line_plot

PASS = "PASS"
FAIL = "FAIL"
INFO = "INFO"
DOCUMENTED = "COUNTEREXAMPLE FOUND (documented)"

SUMMARY_SCHEMA = 1


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _csv_text(write, *args) -> str:
    buffer = io.StringIO()
    write(*args, buffer)
    return buffer.getvalue()


def _slug(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9._=+-]+", "-", label) if label else "base"


def _verdict(name, status, **detail):
    return {"name": name, "status": status, "detail": detail}


def _num(fields, key, default):
    raw = fields.get(key, "")
    return type(default)(raw) if raw != "" else default


def _run_checks(traj, scenario: Scenario, fields) -> list[dict]:
    verdicts = []
    cfg = traj.config
    delta = cfg.update.delta * cfg.update.gain_scale
    eps = 0.0 if cfg.channel.mask_rate.is_zero else epsilon_at(1, cfg.channel.mask_rate)
    for check in scenario.checks:
        if check == "drift":
            try:
                report = verify_drift(traj, delta, cfg.gamma, eps)
            except NoCrossingError as exc:
                verdicts.append(_verdict(check, FAIL, error=str(exc)))
                continue
            verdicts.append(_verdict(
                check, PASS if report.passed else FAIL,
                t0=report.t0, min_margin=report.min_margin,
                mean_drift=report.mean_drift, mean_bound=report.mean_bound))
        elif check == "bounded":
            report = verify_bounded(traj, cfg.gamma)
            verdicts.append(_verdict(
                check, PASS if report.passed else FAIL,
                max_norm=report.max_norm, gamma=cfg.gamma))
        elif check == "bursts":
            report = burst_stats(traj, cfg.update.window)
            ok = report.passed and report.bursts > 0
            verdicts.append(_verdict(
                check, PASS if ok else FAIL, bursts=report.bursts,
                max_norm=report.max_norm, gap_bound=report.gap_bound))
        elif check == "fixed_point":
            step_found = detect_fixed_point(traj)
            verdicts.append(_verdict(
                check, INFO,
                fixed_point_step=step_found,
                classification="CONVERGED" if step_found is not None else "DIVERGENT"))
        elif check == "cost_slope":
            window = (100, min(cfg.horizon, 10_000))
            full = cumulative_compute(traj, cfg.cost_model, window)
            low = cumulative_compute(
                traj,
                dataclasses.replace(cfg.cost_model, variant=CostVariant.LOW_RANK,
                                    rank=_num(fields, "rank", 4)),
                window)
            ok = abs(full.slope - 2.0) <= 0.1 and abs(low.slope - 1.0) <= 0.1
            verdicts.append(_verdict(
                check, PASS if ok else FAIL,
                full_slope=full.slope, low_rank_slope=low.slope))
        elif check == "time_bound":
            target = _num(fields, "bound_target", 100.0)
            t_star = traj.first_crossing(cfg.gamma)
            if t_star is None:
                verdicts.append(_verdict(check, FAIL, error="no crossing"))
                continue
            bound = divergence_time_bound(
                t_star, float(traj.norms[t_star]), target, delta, eps, cfg.gamma)
            reached = np.nonzero(traj.norms >= target)[0]
            observed = int(reached[0]) if len(reached) else None
            ok = observed is not None and observed <= bound
            verdicts.append(_verdict(
                check, PASS if ok else FAIL,
                t_star=t_star, bound=bound, observed=observed))
        elif check == "sublinear_growth":
            report = sublinear_growth_report(
                traj, max(1, traj.steps // 10), traj.steps)
            verdicts.append(_verdict(check, INFO, **report))
    return verdicts


def _swarm_checks(traj, spec, scenario: Scenario) -> list[dict]:
    verdicts = []
    for check in scenario.checks:
        if check == "collective_gain":
            report = check_collective_gain(traj, spec)
            verdicts.append(_verdict(
                check, PASS if report.passed else FAIL,
                collective_mean=report.collective_mean,
                collective_bound=report.collective_bound,
                per_agent=[(c.mean_delta, c.bound) for c in report.per_agent]))
        elif check == "divergence":
            report = predict_and_verify_divergence(spec, traj.steps, traj.seed)
            if report.rho > 1.0:
                ok = report.flagged_divergent and bool(report.growth_ok)
                status = PASS if ok else FAIL
            else:
                status = INFO
            verdicts.append(_verdict(
                check, status, rho=report.rho, slope=report.slope,
                crossed=report.crossed, crossing_step=report.crossing_step))
    return verdicts


def _execute_run_job(scenario, label, overrides, seed, outdir):
    fields = scenario.field_map(overrides)
    cfg = build_run_config(scenario, overrides, seed=seed)
    traj = run(cfg)
    entry = {
        "label": label or "base",
        "seed": seed,
        "steps": traj.steps,
        "final_norm": traj.final_norm,
        "crossing_step": traj.first_crossing(cfg.gamma),
        "total_flops": traj.total_flops,
        "checks": _run_checks(traj, scenario, fields),
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
    fields = scenario.field_map(overrides)
    horizon = _num(fields, "horizon", 100)
    traj = run_swarm(spec, horizon, seed=seed)
    entry = {
        "label": label or "base",
        "seed": seed,
        "steps": traj.steps,
        "final_norms": [float(n) for n in traj.norm[:, -1]],
        "crossing_step": traj.first_crossing(spec.gamma),
        "checks": _swarm_checks(traj, spec, scenario),
    }
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
    fields = scenario.field_map(overrides)
    steps = _num(fields, "steps", 200)
    gamma = _num(fields, "gamma", 10.0)
    entry = {"label": label or "base", "seed": seed, "steps": steps, "checks": []}
    for mode in (PrototypeMode.OVERWRITE, PrototypeMode.CUMULATIVE):
        history = run_prototype(mode, steps=steps, gamma=gamma, seed=seed)
        if "csv" in scenario.outputs:
            rows = "\n".join(f"{t},{v}" for t, v in enumerate(history))
            _atomic_write(outdir / f"{_slug(label)}__seed{seed}__{mode.value.lower()}.csv",
                          "t,value\n" + rows + "\n")
        if mode is PrototypeMode.OVERWRITE:
            ok = set(history) <= {0, 1}
            entry["checks"].append(_verdict(
                "prototype_overwrite_binary", PASS if ok else FAIL,
                max_value=max(history)))
        else:
            ok = all(b >= a for a, b in zip(history, history[1:]))
            entry["checks"].append(_verdict(
                "prototype_cumulative_monotone", PASS if ok else FAIL,
                final_value=history[-1]))
    return entry


_EXECUTORS = {
    "run": _execute_run_job,
    "swarm": _execute_swarm_job,
    "prototype": _execute_prototype_job,
}


def _job(args):
    scenario, label, overrides, seed, outdir = args
    return _EXECUTORS[scenario.kind](scenario, label, overrides, seed, Path(outdir))


def run_scenario(scenario: Scenario, outdir, jobs: int = 1) -> dict:
    """Execute every (sweep point, seed) pair and write the summary JSON."""
    outdir = Path(outdir) / scenario.name
    outdir.mkdir(parents=True, exist_ok=True)
    base_seed = int(scenario.field_map().get("seed", "0") or 0)
    work = [
        (scenario, label, overrides, base_seed + r, str(outdir))
        for label, overrides in scenario.sweep_points()
        for r in range(scenario.repeat)
    ]
    if jobs > 1 and len(work) > 1:
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
    if "json" in scenario.outputs:
        _atomic_write(Path(outdir).parent / f"{scenario.name}.summary.json",
                      json.dumps(summary, indent=2))
    return summary


AUDIT_MEASURES = ("length", "compression_gain", "power_law", "fisher",
                  "declared_bonus", "skl", "lz_reuse")

_FISHER_PROBE = (Meaning("1"), Meaning("0"))


def _tagged_sampler(rng):
    from ..measures.audit import default_sampler

    m = default_sampler(rng, 16)
    return Meaning(m.symbols, tag="1" if rng.random() < 0.5 else "2")


def run_audit(measure: str, samples: int = 10_000, seed: int = 0) -> dict:
    """Audit one measure and classify findings.

    Expected, theory-documented findings (the short-string compression edge,
    score cancellation under the Fisher measure, dictionary-reuse slack) are
    reported as documented counterexamples; anything else that violates a
    hard axiom is a failure.
    """
    doc = {"schema": SUMMARY_SCHEMA, "audit": measure, "samples": samples,
           "verdicts": []}
    verdicts = doc["verdicts"]

    if measure == "length":
        report = audit_measure(length_measure(), samples=samples, seed=seed)
        verdicts.append(_verdict(
            "length_axioms", PASS if report.clean else FAIL,
            **json.loads(report.to_json())))
    elif measure == "compression_gain":
        report = audit_measure(compression_gain_measure(), samples=samples, seed=seed)
        verdicts.append(_verdict(
            "compression_gain_nonnegative",
            PASS if report.o1_violations == 0 else FAIL,
            o1_violations=report.o1_violations))
        if compression_gain_measure().evaluate(Meaning("0")) == 0.0:
            verdicts.append(_verdict(
                "compression_gain_unit_floor", DOCUMENTED,
                example="0", value=0.0,
                note="short strings gain nothing; opt-in unit floor available"))
        soft = report.o2_violations + report.o3_violations + \
            report.mii_monotone_violations
        if soft:
            verdicts.append(_verdict(
                "compression_gain_tail_convention", DOCUMENTED,
                findings=soft))
    elif measure == "power_law":
        report = audit_measure(power_measure(2.0), samples=samples, seed=seed)
        hard = report.o1_violations + report.o2_violations
        verdicts.append(_verdict(
            "power_law_axioms", PASS if hard == 0 else FAIL,
            o1_violations=report.o1_violations,
            o2_violations=report.o2_violations))
    elif measure == "fisher":
        report = audit_measure(fisher_measure(0.5), samples=samples, seed=seed,
                               probes=[_FISHER_PROBE])
        verdicts.append(_verdict(
            "fisher_nonnegative", PASS if report.o1_violations == 0 else FAIL,
            o1_violations=report.o1_violations))
        probe_found = any(
            c.inputs == ("1", "0") for c in report.violations("O2"))
        verdicts.append(_verdict(
            "fisher_score_cancellation",
            DOCUMENTED if probe_found else FAIL,
            o2_violations=report.o2_violations,
            example="'1' + '0' at theta0=0.5"))
    elif measure == "declared_bonus":
        spec = declared_measure({"1": 4.0, "2": 4.0},
                                {("1", "2"): 0.5, ("2", "1"): 0.5})
        report = audit_measure(spec, sampler=_tagged_sampler,
                               samples=samples, seed=seed)
        verdicts.append(_verdict(
            "declared_bonus_axioms", PASS if report.clean else FAIL,
            **json.loads(report.to_json())))
    elif measure == "skl":
        result = audit_skl_pairs(samples=max(10, samples // 100), seed=seed)
        ok = result["negative_values"] == 0 and result["worst_asymmetry"] <= 1e-12
        verdicts.append(_verdict("skl_pairs", PASS if ok else FAIL, **result))
    elif measure == "lz_reuse":
        findings = audit_lz_dictionary_reuse(samples=samples, seed=seed)
        status = DOCUMENTED if findings else PASS
        verdicts.append(_verdict(
            "lz_dictionary_reuse", status, findings=len(findings),
            examples=[list(f.inputs) for f in findings[:5]]))
    else:
        raise ValueError(
            f"unknown measure {measure!r}; expected one of {AUDIT_MEASURES}")
    return doc


def run_gamma_star(scenario: Scenario) -> dict:
    from .config import build_channel

    fields = scenario.field_map()
    channel = build_channel(scenario)
    estimate = estimate_gamma_star(
        channel,
        lo=_num(fields, "bracket_lo", 1.0),
        hi=_num(fields, "bracket_hi", 100.0),
        iterations=_num(fields, "iterations", 20),
        mc_samples=_num(fields, "mc_samples", 32),
        seed=_num(fields, "seed", 0),
    )
    return {
        "schema": SUMMARY_SCHEMA,
        "scenario": scenario.name,
        "gamma_star": estimate.value,
        "resolution": estimate.resolution,
        "iterations": estimate.iterations,
        "gamma_true": channel.gamma_true,
    }


def conjecture_experiment(scenario: Scenario) -> dict:
    """Crossing-time-versus-budget fit.

    The scenario's `budgets` list supplies the grid; `budget_binding` says
    what a budget value becomes (`gamma`: the crossing level; `none`: inert,
    the control case). Runs that never cross are excluded and counted. The
    fit is ordinary least squares of mean crossing time against log budget;
    no verdict is attached.
    """
    fields = scenario.field_map()
    budgets = [float(x) for x in fields.get("budgets", "").split(",") if x.strip()]
    if len(set(budgets)) < 3:
        raise ValueError("the budget grid needs at least 3 distinct values")
    seeds = _num(fields, "conjecture_seeds", 10)
    binding = fields.get("budget_binding", "gamma")
    base_seed = _num(fields, "seed", 0)

    points = []
    excluded = 0
    for budget in budgets:
        overrides = {}
        if binding == "gamma":
            overrides["gamma"] = repr(budget)
        crossings = []
        for r in range(seeds):
            cfg = build_run_config(scenario, overrides, seed=base_seed + r)
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
        return [_verdict_row(doc.get("audit", stem), "audit", verdict)
                for verdict in doc["verdicts"]]
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
