"""Passes over a workload's job list, their output checks and the metrics.

A pass runs every job of the workload once, in order, in one process. Wall
time and per-job latency are taken around the jobs only; output checks, CSV
digests and the oracle replay run after the pass, outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import oracle
import workloads

HERE = Path(__file__).resolve().parent


def host_probe_ms() -> float:
    """A fixed pure-Python plus numpy loop, timed next to each pass."""
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    values = np.arange(100_000, dtype=float)
    for _ in range(20):
        values = np.sqrt(values + 1.0)
    return (time.perf_counter() - start) * 1000.0


class Bench:
    """One run of one workload: passes, output checks and metrics."""

    def __init__(self, workload, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.walls: list[float] = []
        self.latencies: list[float] = []
        self.steps: list[int] = []
        self.calib: list[float] = []
        self.pass_counts: list[dict] = []
        self.problems: list[str] = []     # output checks that failed
        self.known: list[str] = []        # documented findings (still failed ops)
        self.attempted = 0
        self.failed = 0
        self.oracle_failed: set[int] = set()
        self.oracle_jobs = 0
        self.digest_checks = 0
        self.first_digests: dict[str, str] | None = None
        self.expected_digests = json.loads((HERE / "digests.json").read_text())

    def run_pass(self) -> None:
        index = len(self.walls)
        pass_dir = self.workdir / f"pass{index}"
        pass_dir.mkdir(parents=True)
        self.calib.append(host_probe_ms())
        jobs = self.workload.jobs
        results, errors, lat = [None] * len(jobs), [None] * len(jobs), []
        start = time.perf_counter()
        for i, job in enumerate(jobs):
            t0 = time.perf_counter()
            try:
                results[i] = job.run(pass_dir)
            except Exception as exc:  # a job that raises is a failed op
                errors[i] = f"{job.label}: {type(exc).__name__}: {exc}"
            lat.append(time.perf_counter() - t0)
        wall = time.perf_counter() - start
        self.walls.append(wall)
        self.latencies += lat
        if index == 0:
            self._oracle(results)
        self._check_pass(pass_dir, results, errors)
        shutil.rmtree(pass_dir)

    def _check_pass(self, pass_dir: Path, results, errors) -> None:
        jobs = self.workload.jobs
        bad: set[int] = set(self.oracle_failed)
        steps = 0
        for i, job in enumerate(jobs):
            if errors[i] is not None:
                self._problem(errors[i])
                bad.add(i)
                continue
            steps += job.steps(results[i])
            for problem in job.check(results[i]):
                if problem.startswith(workloads.KNOWN):
                    self._known(f"{job.label}: {problem[len(workloads.KNOWN):]}")
                else:
                    self._problem(f"{job.label}: {problem}")
                bad.add(i)
        bad |= self._check_report(results)
        counts, bad_files = self._check_files(pass_dir)
        bad |= {i for i, job in enumerate(jobs)
                if any(f.startswith(job.label + "/") for f in bad_files)}
        counts["steps"] = steps
        self.steps.append(steps)
        self.pass_counts.append(counts)
        self.attempted += len(jobs)
        self.failed += len(bad)

    def _check_report(self, results) -> set[int]:
        """The report job must see every verdict the pass's summaries hold."""
        jobs = self.workload.jobs
        if jobs[-1].label != "report" or results[-1] is None:
            return set()
        report, text = results[-1]
        verdicts = sum(len(entry["checks"]) for result in results[:-1]
                       if result is not None for entry in result["runs"])
        expected_tail = f"-- {verdicts} verdicts, 0 failures"
        if len(report["rows"]) != verdicts or not text.endswith(expected_tail):
            self._problem(f"report: {len(report['rows'])} rows, expected "
                          f"{verdicts}; last line {text.splitlines()[-1]!r}")
            return {len(jobs) - 1}
        return set()

    def _check_files(self, pass_dir: Path) -> tuple[dict, set[str]]:
        """Artifact counts of the pass, plus CSVs whose digest is wrong."""
        counts = {"csv_rows": 0, "artifact_bytes": 0, "csv_files": 0}
        digests = {}
        for path in sorted(pass_dir.rglob("*")):
            if not path.is_file():
                continue
            data = path.read_bytes()
            # Summary JSON is left out: it may carry timing fields.
            if path.suffix in (".csv", ".svg"):
                counts["artifact_bytes"] += len(data)
            if path.suffix == ".csv":
                counts["csv_files"] += 1
                counts["csv_rows"] += data.count(b"\n") - 1
                digests[path.relative_to(pass_dir).as_posix()] = \
                    hashlib.sha256(data).hexdigest()
        if not digests:
            return counts, set()
        # Offset 0 is the builtin set: its CSVs must match the committed
        # digests. Other offsets must repeat the first pass byte for byte.
        reference = dict(self.first_digests or digests)
        reference.update(self.expected_digests)
        if self.first_digests is None:
            self.first_digests = digests
        bad = {name for name in reference.keys() | digests.keys()
               if reference.get(name) != digests.get(name)}
        for name in sorted(bad):
            self._problem(f"csv digest differs: {name}")
        self.digest_checks += len(digests)
        return counts, bad

    def _oracle(self, results) -> None:
        """Replay the sampled jobs through `engine.step`, outside the timing."""
        from loopsim import engine
        from loopsim.cli.config import build_run_config

        for i in self.workload.oracle:
            job = self.workload.jobs[i]
            seed = int(job.scenario.field_map()["seed"])
            traj = engine.run(build_run_config(job.scenario, {}, seed=seed))
            entry = results[i]["runs"][0] if results[i] else None
            if entry is None or (entry["steps"], entry["final_norm"]) != (
                    traj.steps, traj.final_norm):
                self._problem(f"{job.label}: replay differs from the job summary")
            bad, known = oracle.verdict(traj)
            self.oracle_jobs += 1
            if not bad:
                continue
            self.oracle_failed.add(i)
            message = f"{job.label}: run() differs from step() in {bad}"
            if known:
                self._known(message + " (POWER_LAW epsilon_t, one ulp)")
            else:
                self._problem(message)

    def _problem(self, message: str) -> None:
        if message not in self.problems:
            self.problems.append(message)

    def _known(self, message: str) -> None:
        if message not in self.known:
            self.known.append(message)

    def counts_repeat(self) -> None:
        if any(c != self.pass_counts[0] for c in self.pass_counts):
            self._problem(f"counts differ between passes: {self.pass_counts}")

    def timed_passes(self, seconds: float, minimum: int = 1) -> list[float]:
        """Run at least `minimum` passes, then more while another one would
        end less than half a pass after `seconds`; returns their wall times."""
        first = len(self.walls)
        start = time.perf_counter()
        while True:
            done = self.walls[first:]
            if len(done) >= minimum and (time.perf_counter() - start
                                         + statistics.median(done) / 2 >= seconds):
                return done
            self.run_pass()


def end_to_end(bench: Bench, setup: list[float]) -> dict:
    wall = statistics.median(bench.walls)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "job_ms_p50": (float(np.percentile(bench.latencies, 50)) * 1e3, "ms"),
        "job_ms_p90": (float(np.percentile(bench.latencies, 90)) * 1e3, "ms"),
        "steps_per_s": (statistics.median(bench.steps) / wall, "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
