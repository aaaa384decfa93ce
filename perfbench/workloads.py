"""The three closed-loop workloads: fixed job lists built from a workload seed.

Each workload is a list of jobs run one after another by one client (one
process, jobs=1). A job is one `run_scenario` call for one scenario and seed,
one audit verb, one estimator call, or the report. Every job carries its own
output check; checks run outside the timed region.

Scenario seeds are drawn from the workload seed, so the same seed gives the
same inputs. Horizons and job counts are fixed, so the work in a pass does not
depend on the seed. The only seed-independent inputs are the offset-0 jobs of
`artifact_sweep`, which run the builtin set exactly as `loopsim run builtin`
does so that their CSVs can be checked against the committed digests.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from loopsim import channel
from loopsim.cli import config, runner
from loopsim.cli.runner import FAIL
from loopsim.engine import ContextState


def _no_problems(result) -> list[str]:
    return []


@dataclass
class Job:
    """One unit of work; `run` gets the pass directory and returns a result."""

    label: str
    run: Callable[[Path], Any]
    check: Callable[[Any], list[str]] = _no_problems
    steps: Callable[[Any], int] = lambda result: 0
    scenario: Any = None          # set for run scenarios the oracle can replay


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    oracle: list[int] = field(default_factory=list)   # job indices to replay


def _ini(sections: list[tuple[str, dict]]) -> str:
    lines = ["[meta]", "schema = 1", ""]
    for name, fields in sections:
        lines.append(f"[scenario:{name}]")
        lines += [f"{key} = {value}" for key, value in fields.items()]
        lines.append("")
    return "\n".join(lines)


def _summary_steps(summary) -> int:
    """Engine steps plus swarm ticks recorded in a run_scenario summary."""
    if summary["kind"] not in ("run", "swarm"):
        return 0
    return sum(int(entry["steps"]) for entry in summary["runs"])


# Prefix of a problem that is a documented finding: the job still counts as
# failed, but the run stays `correct`.
KNOWN = "known finding: "


def _fixed_point_step(entry):
    steps = [v["detail"].get("fixed_point_step") for v in entry["checks"]
             if v["name"] == "fixed_point"]
    return steps[0] if steps else None


def _summary_problems(expect_classification=None, max_fixed_step=None):
    def check(summary) -> list[str]:
        problems = [
            f"{verdict['name']} {verdict['status']} (seed {entry['seed']})"
            for entry in summary["runs"] for verdict in entry["checks"]
            if verdict["status"] == FAIL]
        for entry in summary["runs"]:
            got = entry.get("classification")
            step = _fixed_point_step(entry)
            if expect_classification is not None and got != expect_classification:
                # A stochastic run whose last step repeats the previous state
                # by chance (p = 2**-noise_len) reads as a fixed point.
                chance = got == "CONVERGED" and step == entry["steps"] - 1
                problems.append(
                    (KNOWN if chance else "")
                    + f"classified {got} (fixed point at step {step} of "
                    f"{entry['steps']}), expected {expect_classification}")
            if max_fixed_step is not None and (step is None or step > max_fixed_step):
                problems.append(f"fixed point at {step}, expected <= {max_fixed_step}")
        return problems
    return check


def _scenario_jobs(text: str, checks: dict) -> list[Job]:
    """One job per parsed scenario; `checks` maps a name prefix to its check."""
    jobs = []
    for scenario in config.parse_scenarios(text):
        prefix = scenario.name.rsplit("_", 1)[0]
        jobs.append(Job(
            label=scenario.name,
            run=lambda outdir, s=scenario: runner.run_scenario(s, outdir),
            check=checks.get(prefix, _summary_problems()),
            steps=_summary_steps,
            scenario=scenario if scenario.kind == "run" else None,
        ))
    return jobs


_GATED = {
    "kind": "run", "mode": "ABSTRACT", "psi_kind": "GATED", "noise_len": "8",
    "measure_kind": "LENGTH", "update_kind": "DELTA_MONOTONE",
    "outputs": "json",
}
_SWARM = {
    "kind": "swarm", "k": "2", "beta": "0 0.5; 0.5 0", "base_gain": "4",
    "delta": "1", "gamma": "100", "outputs": "json",
    "checks": "collective_gain",
}


def _verify_templates(short: int, long: int):
    """(prefix, fields, horizons) for verify_sweep, at acceptance-suite scale.

    Horizons are short (1e4), twice that, or long (1e5); the oracle replays
    the first, short job of each family. 11 doubled and 5 long jobs put the
    per-job median among the short jobs and the 90th percentile in the
    middle of the doubled ones, not at the edge between two groups.
    """
    drift = {**_GATED, "gamma": "10", "gamma_true": "10", "gain_lo": "0",
             "gain_hi": "10", "delta": "0.5", "initial_norm": "11",
             "checks": "drift"}
    gate12 = {**_GATED, "gamma": "10", "gamma_true": "10", "gain_lo": "0",
              "gain_hi": "12", "delta": "1.0"}
    mixed = [short] * 6 + [2 * short] * 3 + [long]
    return [
        ("drift", drift, [short] * 9 + [long]),
        ("masked", {**gate12, "initial_norm": "11", "eps0": "0.5",
                    "checks": "drift"}, [short] * 8 + [2 * short, long]),
        ("bounded", {**gate12, "initial_norm": "5", "checks": "bounded"}, mixed),
        ("collapse", {**_GATED, "gamma": "4", "gamma_true": "4", "gain_lo": "0",
                      "gain_hi": "10", "delta": "0.5", "initial_norm": "2",
                      "eps0": "0.95", "checks": "bounded"}, mixed),
        ("windowed", {**_GATED, "update_kind": "WINDOWED", "window": "100",
                      "drop_to": "11", "delta": "1.0", "gamma": "10",
                      "gamma_true": "10", "gain_lo": "0", "gain_hi": "10",
                      "initial_norm": "11", "checks": "bursts"}, mixed),
        ("costslope", {**drift, "delta": "1.0", "checks": "cost_slope"},
         [short] * 8),
        ("powerlaw", {**gate12, "initial_norm": "11", "mask_kind": "POWER_LAW",
                      "eps0": "0.1", "kappa": "0.4", "alpha_decay": "0.5",
                      "checks": "drift"}, [short] * 9 + [2 * short]),
        # Quadratic flops trip the gate after about 1e3 steps: BUDGET_FROZEN.
        ("budget", {**drift, "max_flops": "1e10"}, [short] * 10),
        # MIRROR at the conjecture horizon: the per-step regime.
        ("mirror", {**_GATED, "psi_kind": "MIRROR", "delta": "0.25",
                    "initial_norm": "4", "gamma": "50", "eps0": "0.1"},
         [400] * 12),
        ("sync", {**_SWARM, "lam": "1,1", "schedule": "SYNCHRONOUS"},
         [short] * 6),
        ("async", {**_SWARM, "lam": "0.5,0.5", "schedule": "BERNOULLI_ASYNC"},
         [short] * 6),
    ]


def _seeds(name: str, seed: int):
    rng = random.Random(f"{name}/{seed}")
    return lambda: rng.randrange(1, 2**31)


def verify_sweep(seed: int, tiny: bool = False) -> Workload:
    next_seed = _seeds("verify_sweep", seed)
    short, long = (200, 1000) if tiny else (10_000, 100_000)
    sections = []
    for prefix, fields, horizons in _verify_templates(short, long):
        for i, horizon in enumerate(horizons):
            sections.append((f"{prefix}_{i:02d}", {
                **fields, "horizon": str(horizon), "seed": str(next_seed())}))
    jobs = _scenario_jobs(_ini(sections), {})
    return Workload("verify_sweep", jobs, oracle=_first_of_each(jobs))


def _first_of_each(jobs: list[Job]) -> list[int]:
    """Index of the first replayable job of every scenario prefix."""
    seen, picked = set(), []
    for index, job in enumerate(jobs):
        prefix = job.label.rsplit("_", 1)[0]
        if job.scenario is not None and prefix not in seen:
            seen.add(prefix)
            picked.append(index)
    return picked


def _offsets(seed: int, count: int) -> list[int]:
    """Offset 0 (the builtin seeds) plus seed-derived offsets, 1000 apart."""
    rng = random.Random(f"artifact_sweep/{seed}")
    extra = rng.sample(range(1, 1_000_000), count - 1)
    return [0] + [1000 * x for x in extra]


def artifact_jobs(offsets: list[int]) -> list[Job]:
    """The builtin set with csv,json,svg, one job per scenario, seed and offset.

    A repeated scenario becomes one job per repeat seed; its files are the
    same as `loopsim run builtin` writes. Each job writes into its own
    directory, `o<offset index>/<scenario>-r<repeat>`.
    """
    jobs = []
    for k, offset in enumerate(offsets):
        for s in config.builtin_scenarios():
            base = int(s.field_map().get("seed", "0") or 0)
            for r in range(s.repeat):
                fields = {**dict(s.fields), "seed": str(base + offset + r)}
                variant = dataclasses.replace(
                    s, fields=tuple(sorted(fields.items())), repeat=1,
                    outputs=("csv", "json", "svg"))
                # Round-trip through the INI parser: build and validation.
                variant, = config.parse_scenarios(config.emit_scenarios([variant]))
                sub = f"o{k}/{s.name}-r{r}"
                jobs.append(Job(
                    label=sub,
                    run=lambda outdir, s=variant, sub=sub:
                        runner.run_scenario(s, outdir / sub),
                    check=_summary_problems(),
                    steps=_summary_steps,
                ))
    return jobs


def _report(outdir: Path):
    report = runner.aggregate_reports(outdir)
    return report, runner.format_report(report)


def artifact_sweep(seed: int, tiny: bool = False) -> Workload:
    jobs = artifact_jobs(_offsets(seed, 1 if tiny else 5))
    jobs.append(Job(label="report", run=_report))
    return Workload("artifact_sweep", jobs)


def _audit_check(documented: tuple[str, ...]):
    def check(doc) -> list[str]:
        problems = [f"{doc['audit']}: {v['name']} FAIL"
                    for v in doc["verdicts"] if v["status"] == FAIL]
        names = {v["name"] for v in doc["verdicts"]
                 if v["status"] == runner.DOCUMENTED}
        problems += [f"{doc['audit']}: documented finding {name} missing"
                     for name in documented if name not in names]
        return problems
    return check


_AUDITS = {  # measure: (samples, documented findings that must be reported)
    "length": (2000, ()),
    "compression_gain": (500, ("compression_gain_unit_floor",)),
    "fisher": (2000, ("fisher_score_cancellation",)),
    "declared_bonus": (2000, ()),
    "lz_reuse": (2000, ()),
}


def _collision_job(spec, trials: int, seed: int) -> Job:
    # IDENTITY is injective: the rate is eps^2 + (1 - eps)^2 * 2^-noise_len.
    eps = spec.mask_rate.eps0
    expected = eps**2 + (1.0 - eps) ** 2 * 2.0**-spec.noise_len
    se = (expected * (1.0 - expected) / trials) ** 0.5

    def check(rate) -> list[str]:
        if abs(rate - expected) > 5.0 * se:
            return [f"collision rate {rate} not within 5 se of {expected}"]
        return []
    return Job(
        label=f"collision/seed{seed}",
        run=lambda outdir: channel.estimate_collision_rate(
            spec, ContextState(), trials, seed=seed),
        check=check)


def _entropy_job(spec, samples: int, seed: int) -> Job:
    # Uniform noise: the plug-in estimate sits just below noise_len bits.
    def check(h) -> list[str]:
        if not spec.noise_len - 0.1 <= h <= spec.noise_len:
            return [f"entropy {h} outside [{spec.noise_len - 0.1}, {spec.noise_len}]"]
        return []
    return Job(
        label=f"entropy/seed{seed}",
        run=lambda outdir: channel.entropy_estimate(spec, samples, seed=seed),
        check=check)


def _gamma_star_check(doc) -> list[str]:
    # Criterion 3's window: within 5 % of the declared gate.
    if abs(doc["gamma_star"] - doc["gamma_true"]) > 0.05 * doc["gamma_true"]:
        return [f"gamma_star {doc['gamma_star']} vs gamma_true {doc['gamma_true']}"]
    return []


def symbol_audit(seed: int, tiny: bool = False) -> Workload:
    next_seed = _seeds("symbol_audit", seed)
    scale = 0.05 if tiny else 1.0

    def h(n):
        return str(max(20, int(n * scale)))

    concrete = {"kind": "run", "mode": "CONCRETE", "psi_kind": "IDENTITY",
                "noise_len": "8", "gamma": "100", "outputs": "json"}
    overwrite = {**concrete, "update_kind": "OVERWRITE", "checks": "fixed_point"}
    # The per-job median falls in the middle of the CONCRETE
    # compression-gain runs, not at the edge of a group of jobs.
    templates = [
        ("stochastic", {**overwrite, "temperature": "1.0"},
         [h(10_000)] * 4 + [h(1000)] * 15 + [h(3000)] * 5),
        ("deterministic", {**overwrite, "temperature": "0.0"}, ["1000"] * 20),
        ("cgain", {**concrete, "noise_len": "64",
                   "measure_kind": "COMPRESSION_GAIN",
                   "update_kind": "DELTA_MONOTONE", "delta": "1.0",
                   "eps0": "0.1"}, [h(1000)] * 12),
        ("tagged", {**concrete, "psi_kind": "TAGGED_INJECTIVE",
                    "update_kind": "APPEND"},
         [h(n) for n in (250, 500, 750, 1000, 1000, 1250, 1500, 1500, 2000,
                         2500)]),
    ]
    sections = []
    for prefix, fields, horizons in templates:
        for i, horizon in enumerate(horizons):
            sections.append((f"{prefix}_{i:02d}", {
                **fields, "horizon": horizon, "seed": str(next_seed())}))
    jobs = _scenario_jobs(_ini(sections), {
        "stochastic": _summary_problems(expect_classification="DIVERGENT"),
        "deterministic": _summary_problems(expect_classification="CONVERGED",
                                           max_fixed_step=2),
    })
    oracle = _first_of_each(jobs)

    for repeat in range(2):
        for measure, (samples, documented) in _AUDITS.items():
            audit_seed = next_seed()
            jobs.append(Job(
                label=f"audit/{measure}/{repeat}",
                run=lambda outdir, m=measure, n=max(20, int(samples * scale)),
                s=audit_seed: runner.run_audit(m, samples=n, seed=s),
                check=_audit_check(documented)))

    noise = channel.ChannelSpec(psi_kind=channel.PsiKind.IDENTITY, noise_len=8,
                                mask_rate=channel.constant_mask(0.1))
    for _ in range(10):
        jobs.append(_collision_job(noise, max(50, int(2000 * scale)), next_seed()))
    for _ in range(10):
        jobs.append(_entropy_job(noise, 5000, next_seed()))

    tightness = [s for s in config.builtin_scenarios() if s.name == "tightness"][0]
    for _ in range(8):
        fields = {**dict(tightness.fields), "seed": str(next_seed())}
        scenario = dataclasses.replace(tightness,
                                       fields=tuple(sorted(fields.items())))
        jobs.append(Job(
            label=f"gamma_star/seed{fields['seed']}",
            run=lambda outdir, s=scenario: runner.run_gamma_star(s),
            check=_gamma_star_check))
    return Workload("symbol_audit", jobs, oracle=oracle)


WORKLOADS = {
    "verify_sweep": verify_sweep,
    "artifact_sweep": artifact_sweep,
    "symbol_audit": symbol_audit,
}
