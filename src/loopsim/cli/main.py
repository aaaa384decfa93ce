"""Batch command-line surface.

Verbs: `run` executes scenarios from a config file (or the builtin set),
`audit` checks a measure's axioms, `gamma-star` estimates the critical
threshold of a gated channel, `conjecture` fits crossing time against log
budget, `report` folds a directory of summaries into one verdict table.

Exit codes: 0 all hard checks passed, 1 at least one failed, 2 bad usage or
unparseable config.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .. import __version__
from .config import (
    Scenario,
    ScenarioParseError,
    ScenarioValidationError,
    builtin_scenarios,
    load_scenarios,
)
from .runner import (
    AUDITS,
    FAIL,
    aggregate_reports,
    conjecture_experiment,
    format_report,
    run_audit,
    run_gamma_star,
    run_scenario,
)


def _load(config: str, scenario_name: str | None) -> list[Scenario]:
    try:
        if config == "builtin":
            scenarios = builtin_scenarios()
        else:
            scenarios = load_scenarios(config)
    except FileNotFoundError:
        click.echo(f"error: config file {config!r} not found", err=True)
        sys.exit(2)
    except (ScenarioParseError, ScenarioValidationError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    if scenario_name is not None:
        scenarios = [s for s in scenarios if s.name == scenario_name]
        if not scenarios:
            click.echo(f"error: no scenario named {scenario_name!r}", err=True)
            sys.exit(2)
    return scenarios


@click.group()
@click.version_option(version=__version__, prog_name="loopsim")
def main() -> None:
    """Self-referential feedback-loop simulator and verifier."""


@main.command(name="run")
@click.argument("config")
@click.option("--scenario", "scenario_name", default=None,
              help="Run only the named scenario.")
@click.option("--out", "outdir", default="out", show_default=True,
              type=click.Path(file_okay=False),
              help="Directory for CSV/JSON/SVG artifacts.")
@click.option("--jobs", default=1, show_default=True,
              help="Parallel jobs across sweep points and seeds.")
def run_command(config, scenario_name, outdir, jobs) -> None:
    """Execute scenarios from CONFIG (a path, or 'builtin')."""
    scenarios = _load(config, scenario_name)
    failures = 0
    for scenario in scenarios:
        summary = run_scenario(scenario, outdir, jobs=jobs)
        failures += summary["failures"]
        statuses = [v["status"] for e in summary["runs"] for v in e["checks"]]
        click.echo(
            f"{scenario.name}: {len(summary['runs'])} runs, "
            f"{statuses.count('PASS')} pass, {statuses.count(FAIL)} fail")
    sys.exit(1 if failures else 0)


def _emit(doc: dict, outdir, filename: str) -> None:
    """Echoes a JSON document and, given `outdir`, also writes it there."""
    text = json.dumps(doc, indent=2)
    click.echo(text)
    if outdir is not None:
        directory = Path(outdir)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / filename).write_text(text, encoding="utf-8")


def _experiments(config, scenario_name, key, experiment, outdir, suffix) -> None:
    """Runs `experiment` on every scenario that sets `key` and emits each
    document as `<scenario>.<suffix>.json`. No such scenario, a sweep, which
    the experiments do not read, or a ValueError ends the process with exit
    code 2, naming the scenario or the key."""
    scenarios = [s for s in _load(config, scenario_name) if key in dict(s.fields)]
    if not scenarios:
        click.echo(f"error: no scenario carries {key!r}", err=True)
        sys.exit(2)
    for scenario in scenarios:
        if scenario.sweep:
            ignored = ", ".join(f"sweep_{k}" for k, _ in scenario.sweep)
            click.echo(f"error: scenario {scenario.name!r}: {ignored} would be ignored; "
                       "the experiment runs one point", err=True)
            sys.exit(2)
    for scenario in scenarios:
        try:
            doc = experiment(scenario)
        except ValueError as exc:
            click.echo(f"error: scenario {scenario.name!r}: {exc}", err=True)
            sys.exit(2)
        _emit(doc, outdir, f"{scenario.name}.{suffix}.json")


@main.command(name="audit")
@click.argument("measure", type=click.Choice(tuple(AUDITS)))
@click.option("--samples", default=10_000, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "outdir", default=None,
              type=click.Path(file_okay=False),
              help="Also write <measure>.audit.json to this directory.")
def audit_command(measure, samples, seed, outdir) -> None:
    """Audit MEASURE against the gain-measure axioms."""
    doc = run_audit(measure, samples=samples, seed=seed)
    _emit(doc, outdir, f"{measure}.audit.json")
    sys.exit(1 if any(v["status"] == FAIL for v in doc["verdicts"]) else 0)


@main.command(name="gamma-star")
@click.argument("config")
@click.option("--scenario", "scenario_name", default=None)
@click.option("--out", "outdir", default=None,
              type=click.Path(file_okay=False))
def gamma_star_command(config, scenario_name, outdir) -> None:
    """Estimate the critical context size of a gated scenario channel."""
    _experiments(config, scenario_name, "bracket_lo", run_gamma_star, outdir,
                 "gammastar")
    sys.exit(0)


@main.command(name="conjecture")
@click.argument("config")
@click.option("--scenario", "scenario_name", default=None)
@click.option("--out", "outdir", default=None,
              type=click.Path(file_okay=False))
def conjecture_command(config, scenario_name, outdir) -> None:
    """Fit threshold-crossing time against log budget (no verdict)."""
    _experiments(config, scenario_name, "budgets", conjecture_experiment, outdir,
                 "conjecture")
    sys.exit(0)


@main.command(name="report")
@click.argument("directory", type=click.Path(exists=True, file_okay=False))
def report_command(directory) -> None:
    """Consolidate summaries under DIRECTORY into one verdict table."""
    report = aggregate_reports(directory)
    click.echo(format_report(report))
    sys.exit(0 if report["passed"] else 1)


if __name__ == "__main__":
    main()
