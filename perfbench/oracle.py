"""Replay a run through a plain `engine.step` loop and compare bitwise.

`engine.step` is the slow, obviously-correct reference; `engine.run` is the
fast path every job uses. The reference adds the trajectory-level
CROSSED_GAMMA and FIXED_POINT flags the way `run` documents them: the first
step whose new norm exceeds gamma is flagged CROSSED_GAMMA, and a
deterministic CONCRETE run stops at the first step that leaves the state
unchanged, flagged FIXED_POINT.
"""

from __future__ import annotations

import struct

import numpy as np

from loopsim.channel import ScheduleKind
from loopsim.engine import (
    EVENT_CROSSED_GAMMA,
    EVENT_FIXED_POINT,
    Mode,
    RunConfig,
    Trajectory,
    event_names,
    step,
)

COLUMNS = ("norm", "omega", "delta", "epsilon_t", "flops", "events")
_BITS = {event_names(1 << i)[0]: 1 << i for i in range(5)}


def reference(cfg: RunConfig) -> tuple[dict[str, np.ndarray], float]:
    """Columns and final norm of `cfg` computed one `step` at a time."""
    state = cfg.initial_state()
    can_stop = (cfg.mode is Mode.CONCRETE and cfg.stop_on_fixed_point
                and cfg.channel.deterministic)
    crossed = state.norm > cfg.gamma
    cum_flops = 0.0
    rows = []
    for t in range(cfg.horizon):
        new, rec = step(state, t, cfg, cum_flops)
        bits = sum(_BITS[name] for name in rec.events)
        if not crossed and new.norm > cfg.gamma:
            bits |= EVENT_CROSSED_GAMMA
            crossed = True
        repeated = (can_stop and new.symbols == state.symbols
                    and new.norm == state.norm)
        if repeated:
            bits |= EVENT_FIXED_POINT
        rows.append((rec.norm, rec.omega, rec.delta, rec.epsilon_t, rec.flops, bits))
        cum_flops += rec.flops
        state = new
        if repeated:
            break
    columns = {name: np.array([row[i] for row in rows], dtype=float)
               for i, name in enumerate(COLUMNS[:-1])}
    columns["events"] = np.array([row[-1] for row in rows], dtype=np.uint16)
    return columns, state.norm


def mismatches(traj: Trajectory, columns: dict[str, np.ndarray],
               final_norm: float) -> list[str]:
    """Names of the columns (and `final_norm`) that differ in any bit."""
    bad = []
    for name in COLUMNS:
        got = getattr(traj, name)
        want = columns[name].astype(got.dtype)
        if got.shape != want.shape or got.tobytes() != want.tobytes():
            bad.append(name)
    if struct.pack("<d", traj.final_norm) != struct.pack("<d", final_norm):
        bad.append("final_norm")
    return bad


def known_power_law_ulp(traj: Trajectory, columns: dict[str, np.ndarray],
                        bad: list[str]) -> bool:
    """The documented finding: POWER_LAW epsilon_t off by at most one ulp.

    `run` fills epsilon_t from numpy `epsilon_array`, `step` from Python
    `epsilon_at`; the two power functions can round differently.
    """
    if bad != ["epsilon_t"]:
        return False
    if traj.config.channel.mask_rate.kind is not ScheduleKind.POWER_LAW:
        return False
    ulps = np.abs(traj.epsilon_t.view(np.int64) - columns["epsilon_t"].view(np.int64))
    return bool(ulps.max() <= 1)


def verdict(traj: Trajectory) -> tuple[list[str], bool]:
    """Mismatching fields of `traj` against its reference replay, and whether
    they are exactly the documented POWER_LAW finding."""
    columns, final_norm = reference(traj.config)
    bad = mismatches(traj, columns, final_norm)
    return bad, known_power_law_ulp(traj, columns, bad)
