"""Spans around the public names each loopsim layer exposes to its caller.

The tracer patches module attributes from outside the package (nothing under
`src/` is edited) and restores them on `uninstall`. Each span records its
name, start, end, parent span and a work count (steps, rows, bytes, pairs,
...). Spans are kept in memory and written out when the benchmark ends.

A span's self time is its duration minus the time covered by its child
spans. Channel and measure spans inside the engine (`noise_from_digest`,
`apply_psi`, `MeasureSpec.evaluate`) are recorded only under a CONCRETE
`run`, so the audits' own evaluate calls are not split into spans.
"""

from __future__ import annotations

import gzip
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from loopsim import channel, engine, measures, swarm
from loopsim.channel import PsiKind, ScheduleKind
from loopsim.cli import config, runner
from loopsim.engine import core as engine_core
from loopsim.engine import Mode, UpdateKind
from loopsim.measures import MeasureKind
from loopsim.measures import audit as measures_audit
from loopsim.measures import core as measures_core

EVENTS = {
    "masked": engine.EVENT_MASKED,
    "crossed_gamma": engine.EVENT_CROSSED_GAMMA,
    "burst_hit_w": engine.EVENT_BURST_HIT_W,
    "fixed_point": engine.EVENT_FIXED_POINT,
    "budget_frozen": engine.EVENT_BUDGET_FROZEN,
}


def regime(cfg) -> str:
    """The engine regime a run config exercises, as named in the metrics."""
    ch = cfg.channel
    if cfg.mode is Mode.CONCRETE:
        if ch.psi_kind is PsiKind.TAGGED_INJECTIVE and cfg.update.kind is UpdateKind.APPEND:
            return "concrete.tagged_append"
        if cfg.measure.kind is MeasureKind.COMPRESSION_GAIN:
            return "concrete.compression_gain"
        if cfg.update.kind is UpdateKind.OVERWRITE:
            return "concrete.overwrite"
        return "concrete.other"
    if ch.psi_kind is PsiKind.MIRROR:
        return "abstract.mirror"
    if cfg.budget is not None:
        return "abstract.budget"
    if ch.mask_rate.kind is ScheduleKind.POWER_LAW and not ch.mask_rate.is_zero:
        return "abstract.power_law"
    if cfg.update.kind is UpdateKind.WINDOWED:
        return "abstract.windowed"
    if not ch.mask_rate.is_zero:
        return "abstract.masked"
    if ch.psi_kind is PsiKind.GATED:
        return "abstract.gated"
    return "abstract.other"


def _swarm_tag(spec) -> str:
    if spec.gain_mode is swarm.GainMode.RELAY:
        return "relay"
    return "async" if spec.schedule is swarm.Schedule.BERNOULLI_ASYNC else "sync"


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.count = array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._concrete = False
        self._saved: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.count.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def _span(self, fn, name_of, count_of):
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._open(tracer.name_id(name_of(args, kwargs)))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            tracer.count[sid] = count_of(args, kwargs, result)
            return result
        return wrapper

    def _inner(self, fn, name: str):
        """Span for a per-step call inside the engine; CONCRETE runs only."""
        tracer = self
        nid = self.name_id(name)

        def wrapper(*args, **kwargs):
            if not tracer._concrete:
                return fn(*args, **kwargs)
            sid = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid)
        return wrapper

    def _engine_run(self, fn):
        tracer = self

        def wrapper(cfg):
            sid = tracer._open(tracer.name_id("engine.run." + regime(cfg)))
            tracer._concrete = cfg.mode is Mode.CONCRETE
            try:
                traj = fn(cfg)
            finally:
                tracer._close(sid)
                tracer._concrete = False
            tracer.count[sid] = traj.steps
            for key, bit in EVENTS.items():
                tracer.counters[f"engine.events.{key}"] += int(
                    np.count_nonzero(traj.events & bit))
            return traj
        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        def fixed(name):
            return lambda args, kwargs: name

        def first_len(args, kwargs, result):
            return len(args[0])

        def traj_steps(args, kwargs, result):
            return args[0].steps

        def lz_bits(args, kwargs, result):
            return len(getattr(args[0], "symbols", args[0]))

        def nothing(args, kwargs, result):
            return 0

        patch, span = self._patch, self._span
        patch(runner, "run", self._engine_run(runner.run))
        for check in ("verify_drift", "verify_bounded", "burst_stats",
                      "detect_fixed_point"):
            patch(runner, check, span(getattr(runner, check),
                                      fixed("engine.checks"), traj_steps))
        patch(runner, "cumulative_compute", span(
            runner.cumulative_compute, fixed("cost.cumulative"),
            lambda a, k, r: len(r.instantaneous)))
        patch(engine.Trajectory, "write_csv", span(
            engine.Trajectory.write_csv, fixed("engine.write_csv"), traj_steps))
        for method in ("write_agent_csv", "write_collective_csv"):
            patch(swarm.SwarmTrajectory, method, span(
                getattr(swarm.SwarmTrajectory, method), fixed("swarm.write_csv"),
                traj_steps))
        patch(runner, "svg_line_plot", span(
            runner.svg_line_plot, fixed("cli.svg"), first_len))
        patch(runner, "_atomic_write", span(
            runner._atomic_write, fixed("cli.write"),
            lambda a, k, r: len(a[1])))
        patch(runner, "run_swarm", span(
            runner.run_swarm, lambda a, k: "swarm.run." + _swarm_tag(a[0]),
            lambda a, k, r: r.steps))
        patch(runner, "check_collective_gain", span(
            runner.check_collective_gain, fixed("swarm.checks"), traj_steps))
        patch(runner, "predict_and_verify_divergence", span(
            runner.predict_and_verify_divergence, fixed("swarm.checks"),
            lambda a, k, r: a[1]))
        patch(engine_core, "noise_from_digest", self._inner(
            engine_core.noise_from_digest, "channel.noise"))
        patch(engine_core, "apply_psi", self._inner(
            engine_core.apply_psi, "channel.psi"))
        patch(measures.MeasureSpec, "evaluate", self._inner(
            measures.MeasureSpec.evaluate, "measures.evaluate"))
        for module in (measures_core, measures_audit):
            patch(module, "lz78_parse", span(
                module.lz78_parse, fixed("measures.lz78"), lz_bits))
        patch(measures_audit, "edit_distance", span(
            measures_audit.edit_distance, fixed("meanings.edit_distance"),
            nothing))
        patch(runner, "audit_measure", span(
            runner.audit_measure,
            lambda a, k: "measures.audit." + a[0].kind.value.lower(),
            lambda a, k, r: r.samples + len(k.get("probes", ()))))
        patch(runner, "audit_lz_dictionary_reuse", span(
            runner.audit_lz_dictionary_reuse, fixed("measures.lz_reuse"),
            lambda a, k, r: k["samples"]))
        patch(runner, "estimate_gamma_star", span(
            runner.estimate_gamma_star, fixed("engine.gamma_star"), nothing))
        patch(channel, "estimate_collision_rate", span(
            channel.estimate_collision_rate, fixed("channel.collision"),
            lambda a, k, r: a[2]))
        patch(channel, "entropy_estimate", span(
            channel.entropy_estimate, fixed("channel.entropy"),
            lambda a, k, r: a[1]))
        for name in ("run_scenario", "run_audit", "run_gamma_star"):
            patch(runner, name, span(getattr(runner, name),
                                     fixed("cli." + name), nothing))
        patch(runner, "aggregate_reports", span(
            runner.aggregate_reports, fixed("cli.report.aggregate"), nothing))
        patch(runner, "format_report", span(
            runner.format_report, fixed("cli.report.format"), nothing))
        for name in ("builtin_scenarios", "parse_scenarios"):
            patch(config, name, span(getattr(config, name),
                                     fixed("cli.config"), nothing))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def totals(self, first: int = 0) -> dict[str, tuple[float, float, float, int]]:
        """name -> (total s, self s, summed count, calls) for spans from `first`."""
        # Slicing an array copies it, so the buffers stay free to grow.
        dur = np.frombuffer(self.end[first:]) - np.frombuffer(self.start[first:])
        names = np.frombuffer(self.name[first:], dtype=np.int64)
        parents = np.frombuffer(self.parent[first:], dtype=np.int64) - first
        counts = np.frombuffer(self.count[first:])
        child = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        out = {}
        for nid in np.unique(names):
            sel = names == nid
            out[self.names[nid]] = (float(dur[sel].sum()),
                                    float((dur[sel] - child[sel]).sum()),
                                    float(counts[sel].sum()), int(sel.sum()))
        return out

    def write(self, path: Path) -> None:
        """Spans as gzip'd CSV: id, parent, name, start_s, end_s, count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,parent,name,start_s,end_s,count\n")
            for sid in range(len(self.name)):
                out.write(f"{sid},{self.parent[sid]},{self.names[self.name[sid]]},"
                          f"{self.start[sid]:.9f},{self.end[sid]:.9f},"
                          f"{self.count[sid]:g}\n")
