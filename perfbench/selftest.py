"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced and asserts that each
metric BENCHMARK.json names is emitted with its unit and that the outputs
check out. Then feeds the oracle a trajectory perturbed by one ulp and
asserts that the benchmark counts that job as failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def smoke(workload: str, trace: int, declared: dict) -> None:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "0", "--trace", str(trace), "--tiny"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stdout
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in declared[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, (workload, trace, set(got) ^ set(want))
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    print(f"ok  {workload} trace={trace} attempted={result['attempted']} "
          f"failed={result['failed']}")


def perturbed_oracle() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import oracle
    import workloads
    from bench import Bench
    from loopsim import engine

    workload = workloads.verify_sweep(7, tiny=True)
    first = workload.oracle[0]
    honest = engine.run

    def perturbed_run(cfg):
        traj = honest(cfg)
        traj.norm[3] = np.nextafter(traj.norm[3], np.inf)
        return traj

    traj = perturbed_run(engine_config(workload, first))
    bad, known = oracle.verdict(traj)
    assert bad == ["norm"] and not known, (bad, known)

    with tempfile.TemporaryDirectory(dir=ROOT) as workdir:
        bench = Bench(workload, Path(workdir))
        engine.run = perturbed_run
        try:
            bench.run_pass()
        finally:
            engine.run = honest
    assert first in bench.oracle_failed
    assert bench.failed >= len(workload.oracle)
    assert any("differs from step() in ['norm']" in p for p in bench.problems)
    print(f"ok  perturbed trajectory counted as failed "
          f"({bench.failed} of {bench.attempted} jobs)")


def engine_config(workload, index):
    from loopsim.cli.config import build_run_config

    scenario = workload.jobs[index].scenario
    return build_run_config(scenario, {}, seed=int(scenario.field_map()["seed"]))


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in declared["workloads"]]:
        for trace in (0, 1):
            smoke(workload, trace, declared)
    perturbed_oracle()
    return 0


if __name__ == "__main__":
    sys.exit(main())
