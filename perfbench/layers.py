"""The traced run: per-layer metrics from spans, plus the tracing overhead.

Each metric below names the end-to-end metric it should move and the
workload where it should move it (see README.md). A layer that a workload
never calls reports 0 there.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import workloads
from bench import Bench
from spans import Tracer

US = 1e6

# metric, unit, span names, time to use, divisor (a span field), scale
RATES = [
    *[(f"engine.abstract_us_per_step.{r}", "us/step",
       [f"engine.run.abstract.{r}"], "total", "count", US)
      for r in ("gated", "masked", "windowed", "power_law", "budget", "mirror")],
    ("engine.checks_us_per_step", "us/step", ["engine.checks"], "total", "count", US),
    *[(f"engine.concrete_us_per_step.{r}", "us/step",
       [f"engine.run.concrete.{r}"], "total", "count", US)
      for r in ("overwrite", "compression_gain", "tagged_append")],
    ("engine.concrete_self_us_per_step", "us/step",
     [f"engine.run.concrete.{r}" for r in
      ("overwrite", "compression_gain", "tagged_append", "other")],
     "self", "count", US),
    ("engine.csv_us_per_row", "us/row", ["engine.write_csv"], "total", "count", US),
    ("swarm.csv_us_per_row", "us/row", ["swarm.write_csv"], "total", "count", US),
    ("cli.svg_us_per_point", "us/point", ["cli.svg"], "total", "count", US),
    ("channel.noise_us_per_draw", "us/draw", ["channel.noise"], "total", "calls", US),
    ("channel.psi_us_per_call", "us/call", ["channel.psi"], "total", "calls", US),
    ("measures.evaluate_us_per_call", "us/call", ["measures.evaluate"],
     "total", "calls", US),
    ("measures.lz78_us_per_kbit", "us/kbit", ["measures.lz78"], "total", "count",
     US * 1000),
    *[(f"measures.audit_us_per_pair.{m}", "us/pair", [f"measures.audit.{m}"],
       "total", "count", US)
      for m in ("length", "compression_gain", "fisher", "declared_bonus")],
    ("measures.lz_reuse_us_per_pair", "us/pair", ["measures.lz_reuse"],
     "total", "count", US),
    ("meanings.edit_distance_us_per_call", "us/call", ["meanings.edit_distance"],
     "total", "calls", US),
    ("channel.collision_us_per_trial", "us/trial", ["channel.collision"],
     "total", "count", US),
    ("channel.entropy_us_per_sample", "us/sample", ["channel.entropy"],
     "total", "count", US),
    ("engine.gamma_star_ms", "ms", ["engine.gamma_star"], "total", "calls", 1e3),
    *[(f"swarm.us_per_tick.{tag}", "us/tick", [f"swarm.run.{tag}"],
       "total", "count", US) for tag in ("sync", "async", "relay")],
    ("swarm.checks_us_per_tick", "us/tick", ["swarm.checks"], "total", "count", US),
    ("cost.cumulative_us_per_point", "us/point", ["cost.cumulative"],
     "total", "count", US),
    ("cli.runner_self_us_per_job", "us/job", ["cli.run_scenario"],
     "self", "calls", US),
    ("cli.write_us_per_kb", "us/KiB", ["cli.write"], "total", "count", US * 1024),
    ("cli.report_ms", "ms", ["cli.report.aggregate", "cli.report.format"],
     "total", ["cli.report.aggregate"], 1e3),
]

COUNTS = ["engine.steps", "swarm.ticks", "measures.audit_pairs",
          "cli.csv_rows", "cli.artifact_bytes", "cli.csv_files",
          *[f"engine.events.{e}" for e in
            ("masked", "crossed_gamma", "burst_hit_w", "fixed_point",
             "budget_frozen")],
          "engine.oracle_jobs", "engine.oracle_mismatch_jobs"]

CONFIG_BUILDS = 3


def _sum(totals, names, field):
    index = {"total": 0, "self": 1, "count": 2, "calls": 3}[field]
    return sum(totals[n][index] for n in names if n in totals)


def rates(totals: dict) -> dict:
    metrics = {}
    for name, unit, spans, time_field, divisor, scale in RATES:
        if isinstance(divisor, list):
            per = _sum(totals, divisor, "calls")
        else:
            per = _sum(totals, spans, divisor)
        seconds = _sum(totals, spans, time_field)
        metrics[name] = (seconds * scale / per if per else 0.0, unit)
    return metrics


def pass_counts(totals: dict, counters, files: dict) -> dict:
    def prefixed(prefix, field="count"):
        return int(_sum(totals, [n for n in totals if n.startswith(prefix)], field))

    counts = {
        "engine.steps": prefixed("engine.run."),
        "swarm.ticks": prefixed("swarm.run."),
        "measures.audit_pairs": prefixed("measures.audit.")
        + prefixed("measures.lz_reuse"),
        "cli.csv_rows": files["csv_rows"],
        "cli.artifact_bytes": files["artifact_bytes"],
        "cli.csv_files": files["csv_files"],
    }
    counts.update({k: v for k, v in counters.items()})
    return counts


def traced_run(args, workdir: Path, trace_dir: Path):
    """Untraced passes for half the time, then traced passes (at least two)."""
    tracer = Tracer()
    tracer.install()
    try:
        for _ in range(CONFIG_BUILDS):
            workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    finally:
        tracer.uninstall()
    config = tracer.totals()
    config_ms = config.get("cli.config", (0.0,))[0] * 1e3 / CONFIG_BUILDS

    bench = Bench(workload, workdir)
    untraced = bench.timed_passes(args.seconds / 2)
    first_traced = len(tracer.name)
    traced, per_pass = [], []
    start = time.perf_counter()
    tracer.install()
    try:
        while len(traced) < 2 or (time.perf_counter() - start + statistics.median(
                traced) / 2 < args.seconds / 2):
            begin = len(tracer.name)
            tracer.counters.clear()
            traced += bench.timed_passes(0)
            counts = pass_counts(tracer.totals(begin), tracer.counters,
                                 bench.pass_counts[-1])
            per_pass.append(counts)
    finally:
        tracer.uninstall()

    if any(c != per_pass[0] for c in per_pass):
        bench._problem(f"traced counts differ between passes: {per_pass}")
    bench.counts_repeat()
    summary_steps = bench.pass_counts[0]["steps"]
    span_steps = per_pass[0]["engine.steps"] + per_pass[0]["swarm.ticks"]
    if span_steps != summary_steps:
        bench._problem(f"spans count {span_steps} steps, summaries {summary_steps}")

    metrics = rates(tracer.totals(first_traced))
    metrics["cli.config_ms"] = (config_ms, "ms")
    metrics["host.calib_ms"] = (statistics.median(bench.calib), "ms")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced), "ratio")
    counts = dict(per_pass[0])
    counts["engine.oracle_jobs"] = bench.oracle_jobs
    counts["engine.oracle_mismatch_jobs"] = len(bench.oracle_failed)
    for name in COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.spans.csv.gz")
    return metrics, bench
