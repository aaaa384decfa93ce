"""loopsim benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify_sweep --seed 1 --seconds 35 --trace 0

One client in one process runs the workload's fixed job list (a pass) again
and again until `--seconds` have passed; each job starts when the previous
one has finished. Outputs are checked outside the timed region. With
`--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` the first half of the time runs untraced passes and the second
half traced passes, and the last line carries the per-layer metrics. See
README.md beside this file for the workloads, metrics and known findings.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify_sweep", "artifact_sweep", "symbol_audit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (selftest.py)")
    return parser.parse_args(argv)


def _import_program():
    """Put the checkout's own `src` first on the path; fail without it."""
    if not (SRC / "loopsim" / "__init__.py").is_file():
        sys.exit(f"error: no loopsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import loopsim
    if Path(loopsim.__file__).resolve().parent != SRC / "loopsim":
        sys.exit(f"error: imported loopsim from {loopsim.__file__}, not {SRC}")


def _setup_seconds(args) -> list[float]:
    """Fresh-process start to first job ready, timed from the parent."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--setup-probe"] + ["--tiny"] * args.tiny
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT,
                              text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code}): {line!r}")
        times.append(elapsed)
    return times


def _report_lines(bench, metrics: dict) -> list[str]:
    lines = [f"{name:44} {value:14.6g} {unit}"
             for name, (value, unit) in metrics.items()]
    lines.append(f"{'passes':44} {len(bench.walls):14d}  wall_s each: "
                 + " ".join(f"{w:.3f}" for w in bench.walls))
    lines.append(f"{'job latency samples':44} {len(bench.latencies):14d}")
    lines.append(f"{'jobs attempted / failed':44} {bench.attempted:>14d} "
                 f"/ {bench.failed}")
    lines.append(f"{'failed_ops_ratio':44} "
                 f"{bench.failed / max(bench.attempted, 1):14.6g}")
    lines.append(f"{'oracle sample jobs / mismatches':44} "
                 f"{bench.oracle_jobs:>14d} / {len(bench.oracle_failed)}")
    lines.append(f"{'csv digests checked':44} {bench.digest_checks:14d}")
    lines.append(f"{'host.calib_ms (median)':44} "
                 f"{statistics.median(bench.calib):14.6g} ms")
    lines += [f"known finding: {m}" for m in bench.known]
    lines += [f"FAILED CHECK: {m}" for m in bench.problems[:20]]
    return lines


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    import workloads
    from bench import Bench, end_to_end

    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed, args.tiny)
        print("ready", flush=True)
        return 0

    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    try:
        if args.trace:
            from layers import traced_run
            metrics, bench = traced_run(args, workdir, ROOT / ".perfbench" / "trace")
        else:
            setup = _setup_seconds(args)
            bench = Bench(workloads.WORKLOADS[args.workload](args.seed, args.tiny),
                          workdir)
            bench.timed_passes(args.seconds)
            bench.counts_repeat()
            metrics = end_to_end(bench, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in _report_lines(bench, metrics):
        print(line)
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
