"""Column-wise artifact writers against plain per-row f-string references."""

import io
import math
import os
from itertools import zip_longest
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsim.channel import ChannelSpec, PsiKind, constant_mask, power_law_mask
from loopsim.cli.plots import HEIGHT, MARGIN, WIDTH, svg_line_plot
from loopsim.columns import BLOCK_ROWS, format_column, write_csv
from loopsim.engine import (
    BudgetGate,
    Mode,
    RunConfig,
    Trajectory,
    event_names,
    run,
    windowed,
)
from loopsim.swarm import GainMode, Schedule, SwarmSpec, SwarmTrajectory, run_swarm

SPECS = (".12g", ".2f")
SPECIALS = (0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
            -2.2250738585072014e-308, 1e300, -1e300, 0.1, 1.0 / 3.0)

floats = st.one_of(st.floats(width=64), st.sampled_from(SPECIALS),
                   st.floats(min_value=-1e300, max_value=1e300))


# -- references: the per-row writers as plain f-strings ---------------------

def reference_run_csv(traj) -> str:
    rows = ["t,norm,omega,delta,epsilon_t,flops,events\n"]
    for t in range(traj.steps):
        names = ";".join(event_names(int(traj.events[t])))
        rows.append(
            f"{t},{traj.norm[t]:.12g},{traj.omega[t]:.12g},{traj.delta[t]:.12g},"
            f"{traj.epsilon_t[t]:.12g},{traj.flops[t]:.12g},{names}\n")
    return "".join(rows)


def reference_agent_csv(traj, agent) -> str:
    rows = ["t,norm,omega,delta,active\n"]
    for t in range(traj.steps):
        rows.append(
            f"{t},{traj.norm[agent, t]:.12g},"
            f"{traj.delta[agent, t] / traj.spec.delta:.12g},"
            f"{traj.delta[agent, t]:.12g},{int(traj.active[agent, t])}\n")
    return "".join(rows)


def reference_collective_csv(traj) -> str:
    rows = ["t,sum_delta,active_count\n"]
    collective = traj.collective
    counts = traj.active.sum(axis=0)
    for t in range(traj.steps):
        rows.append(f"{t},{collective[t]:.12g},{int(counts[t])}\n")
    return "".join(rows)


def reference_svg(series, threshold, title) -> str:
    def scale(values, lo, hi, out_lo, out_hi):
        span = hi - lo
        if span <= 0.0:
            span = 1.0
        return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in values]

    values = [float(v) for v in series] or [0.0]
    lo = min(values + ([threshold] if threshold is not None else []))
    hi = max(values + ([threshold] if threshold is not None else []))
    lo = min(lo, 0.0)
    xs = scale(range(len(values)), 0, max(len(values) - 1, 1), MARGIN, WIDTH - MARGIN)
    ys = scale(values, lo, hi, HEIGHT - MARGIN, MARGIN)
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
    ]
    if threshold is not None:
        ty = scale([threshold], lo, hi, HEIGHT - MARGIN, MARGIN)[0]
        parts.append(
            f'<line x1="{MARGIN}" y1="{ty:.2f}" x2="{WIDTH - MARGIN}" '
            f'y2="{ty:.2f}" stroke="red" stroke-dasharray="6,4"/>')
    if title:
        parts.append(
            f'<text x="{MARGIN}" y="{MARGIN - 16}" font-size="14">'
            f'{escape(title)}</text>')
    parts.append(
        f'<polyline fill="none" stroke="steelblue" stroke-width="1.5" '
        f'points="{points}"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def assert_same_text(got: str, want: str) -> None:
    """Exact equality of two texts. A failure names the first differing line
    and shows both versions of it around the first differing character:
    pytest's own diff of two long, nearly equal strings can take minutes."""
    if got == want:
        return
    line, a, b = next((i, a, b) for i, (a, b) in enumerate(
        zip_longest(got.split("\n"), want.split("\n"))) if a != b)
    col = len(os.path.commonprefix([a or "", b or ""]))
    lo = max(0, col - 40)
    pytest.fail(f"texts differ at line {line + 1}, column {col + 1}:\n"
                f"  got:  {a if a is None else a[lo:col + 40]!r}\n"
                f"  want: {b if b is None else b[lo:col + 40]!r}")


def written(method, *args) -> str:
    out = io.StringIO()
    method(*args, out)
    return out.getvalue()


# -- the formatter -----------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.lists(floats, max_size=60), st.integers(0, 3), st.sampled_from(SPECS))
def test_format_column_equals_format(values, repeats, spec):
    a = np.array(values * (repeats + 1), dtype=np.float64)
    assert format_column(a, spec) == [format(x, spec) for x in a.tolist()]


@pytest.mark.parametrize("spec", SPECS)
def test_format_column_keeps_zero_sign_and_nan_payloads(spec):
    a = np.array([0.0, -0.0, 0.0, math.nan, -math.nan, math.inf, -0.0])
    a[3:4].view(np.uint64)[0] |= 1  # a second NaN bit pattern
    assert format_column(a, spec) == [format(x, spec) for x in a.tolist()]
    assert format_column(np.array([], dtype=float), spec) == []


# -- single-agent CSV --------------------------------------------------------

def test_run_csv_matches_reference_across_blocks_and_events():
    # Masked, crossing, windowed and budget-frozen steps, some of them
    # together in one cell, over a horizon of more than two row blocks.
    cfg = RunConfig(
        channel=ChannelSpec(psi_kind=PsiKind.GATED, gamma_true=10.0, gain_lo=0,
                            gain_hi=10, seed=7,
                            mask_rate=power_law_mask(0.1, 0.4, 0.5)),
        update=windowed(100, delta=1.0 / 3.0, drop_to=11.0),
        gamma=50.0, initial_norm=11.0, horizon=20_000,
        mode=Mode.ABSTRACT, budget=BudgetGate(max_flops=2e7))
    traj = run(cfg)
    assert traj.steps > 2 * BLOCK_ROWS
    assert {1, 2, 4, 16, 17} <= set(traj.events.tolist())
    assert_same_text(written(traj.write_csv), reference_run_csv(traj))


def test_run_csv_empty_trajectory():
    cfg = RunConfig(channel=ChannelSpec(mask_rate=constant_mask(0.0)),
                    update=windowed(4), horizon=1)
    empty = np.array([], dtype=float)
    traj = Trajectory(config=cfg, norms=np.zeros(1), omega=empty, delta=empty,
                      epsilon_t=empty, flops=empty,
                      events=np.array([], dtype=np.uint16))
    assert_same_text(written(traj.write_csv), reference_run_csv(traj))


# -- swarm CSVs --------------------------------------------------------------

def _spec(**kwargs):
    return SwarmSpec(k=3, beta=np.array([[0, 0.5, 0.25], [0.5, 0, 0.1], [0.3, 0.2, 0]]),
                     lam=np.array([0.5, 0.7, 0.9]), base_gain=4.0, delta=0.3,
                     gamma=100.0, **kwargs)


def _empty_swarm(spec):
    return SwarmTrajectory(spec=spec, seed=0, norm=np.zeros((spec.k, 1)),
                           delta=np.zeros((spec.k, 0)),
                           active=np.zeros((spec.k, 0), dtype=bool))


@pytest.mark.parametrize("traj", [
    run_swarm(_spec(schedule=Schedule.BERNOULLI_ASYNC), BLOCK_ROWS + 3, seed=4),
    run_swarm(_spec(gain_mode=GainMode.RELAY), 40, seed=1),
    run_swarm(_spec(), 25, seed=2),               # constant increments
    _empty_swarm(_spec()),
], ids=["async", "relay", "constant", "empty"])
def test_swarm_csvs_match_reference(traj):
    for agent in range(traj.spec.k):
        assert_same_text(written(traj.write_agent_csv, agent),
                         reference_agent_csv(traj, agent))
    assert_same_text(written(traj.write_collective_csv), reference_collective_csv(traj))


# -- any columns, block by block ---------------------------------------------

# Bit patterns: both zeros, two NaN payloads, a negative NaN, both infinities,
# the smallest subnormal and a few finite floats.
FLOAT_BITS = np.array([0.0, -0.0, math.nan, math.nan, -math.nan, math.inf, -math.inf,
                       5e-324, 1.0 / 3.0, 31.0, -2.5]).view(np.uint64)
FLOAT_BITS[3] |= 1
EVENT_CODES = np.arange(64, dtype=np.uint16)
CSV_LENGTHS = st.integers(0, 2 * BLOCK_ROWS + 52)


def drawn_column(data, rng, n, pool):
    """n entries of 1-3 values from the pool: one value throughout, one value
    but a single row at either edge of some block, or a mix."""
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=3, unique=True))
    values = pool[picks]
    column = np.full(n, values[0], dtype=pool.dtype)
    shape = data.draw(st.sampled_from(("one", "first", "last", "mixed")))
    if n and len(values) > 1 and shape == "mixed":
        column = values[rng.integers(len(values), size=n)]
    elif n and len(values) > 1 and shape != "one":
        lo = BLOCK_ROWS * data.draw(st.integers(0, (n - 1) // BLOCK_ROWS))
        column[lo if shape == "first" else min(n, lo + BLOCK_ROWS) - 1] = values[1]
    return column


def drawn_floats(data, rng, n):
    return drawn_column(data, rng, n, FLOAT_BITS).view(np.float64)


@settings(max_examples=80, deadline=None)
@given(CSV_LENGTHS, st.integers(0, 2**32 - 1), st.data())
def test_run_csv_matches_reference_on_any_columns(n, seed, data):
    rng = np.random.default_rng(seed)
    cfg = RunConfig(channel=ChannelSpec(mask_rate=constant_mask(0.0)),
                    update=windowed(4), horizon=1)
    traj = Trajectory(config=cfg, norms=drawn_floats(data, rng, n + 1),
                      omega=drawn_floats(data, rng, n), delta=drawn_floats(data, rng, n),
                      epsilon_t=drawn_floats(data, rng, n), flops=drawn_floats(data, rng, n),
                      events=drawn_column(data, rng, n, EVENT_CODES))
    assert_same_text(written(traj.write_csv), reference_run_csv(traj))


@settings(max_examples=40, deadline=None)
@given(CSV_LENGTHS, st.integers(0, 2**32 - 1), st.data())
def test_swarm_csvs_match_reference_on_any_columns(n, seed, data):
    rng = np.random.default_rng(seed)
    spec = _spec()
    traj = SwarmTrajectory(
        spec=spec, seed=0,
        norm=np.array([drawn_floats(data, rng, n + 1) for _ in range(spec.k)]).reshape(spec.k, n + 1),
        delta=np.array([drawn_floats(data, rng, n) for _ in range(spec.k)]).reshape(spec.k, n),
        active=np.array([drawn_column(data, rng, n, np.array([False, True]))
                         for _ in range(spec.k)]).reshape(spec.k, n))
    for agent in range(spec.k):
        assert_same_text(written(traj.write_agent_csv, agent),
                         reference_agent_csv(traj, agent))
    with np.errstate(invalid="ignore"):  # inf + -inf in the collective sum
        assert_same_text(written(traj.write_collective_csv), reference_collective_csv(traj))


@settings(max_examples=80, deadline=None)
@given(CSV_LENGTHS, st.integers(0, 2**32 - 1), st.data())
def test_csv_text_table_may_hold_percent_signs(n, seed, data):
    # A constant text is folded into a %-template, a varying one is a % argument.
    rng = np.random.default_rng(seed)
    names = ("%", "%s", "%%", "a%sb%d", "ok")
    columns = [drawn_floats(data, rng, n) for _ in range(data.draw(st.integers(1, 2)))]
    codes = drawn_column(data, rng, n, np.arange(len(names)))
    out = io.StringIO()
    write_csv(out, "t,x,name", columns, codes, names)
    assert_same_text(out.getvalue(), "t,x,name\n" + "".join(
        f"{t}," + "".join(f"{col[t]:.12g}," for col in columns) + f"{names[codes[t]]}\n"
        for t in range(n)))


@pytest.mark.parametrize("row", [0, BLOCK_ROWS - 1])
def test_a_block_of_zeros_keeps_its_negative_zero(row):
    # 0.0 == -0.0, so a block is judged constant on its bit patterns.
    column = np.zeros(BLOCK_ROWS + 1)
    column[row] = -0.0
    out = io.StringIO()
    write_csv(out, "t,x,e", [column], np.zeros(len(column), np.uint8), ("0",))
    assert_same_text(out.getvalue(), "t,x,e\n" + "".join(
        f"{t},{x:.12g},0\n" for t, x in enumerate(column)))


# -- SVG ---------------------------------------------------------------------

@pytest.mark.parametrize("series,threshold", [
    ([], None),
    ([], 5.0),
    ([3.5] * 7, None),
    ([3.5] * 7, 3.5),
    (np.cumsum(np.linspace(0.1, 3.0, 2500)), 10.0),    # inside, several blocks
    (np.cumsum(np.linspace(0.1, 3.0, 500)), 1e6),      # threshold above
    (np.linspace(5.0, 9.0, 50), -2.0),                  # threshold below
    ([-0.0, 1e-300, 2.5, -4.0, 1e300], 1.0),
], ids=["empty", "empty-threshold", "constant", "constant-at-threshold",
        "inside", "above", "below", "extremes"])
def test_svg_matches_reference(series, threshold):
    title = "drift <a&b> seed 1"
    assert_same_text(svg_line_plot(series, threshold=threshold, title=title),
                     reference_svg(series, threshold, title))


plotted = st.one_of(st.sampled_from((0.0, -0.0, 1e300, -1e300, 5e-324)),
                    st.floats(min_value=-1e300, max_value=1e300))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 * BLOCK_ROWS + 52),
       st.lists(st.lists(plotted, min_size=1, max_size=6), min_size=2, max_size=2),
       st.integers(0, 2**32 - 1),
       st.one_of(st.just(()), st.tuples(st.sampled_from((math.nan, math.inf, -math.inf)),
                                        plotted)),
       st.one_of(st.none(), st.sampled_from((0.0, -0.0)),
                 st.floats(min_value=-1e300, max_value=1e300)))
def test_svg_matches_reference_on_any_series(n, pools, seed, tail, threshold):
    # Two series of one length, the second plotted from the cached x column;
    # the reference gets the finite prefix, before the tail's non-finite head.
    rng = np.random.default_rng(seed)
    title = "gain <a&b> seed 1"
    for pool in pools:
        series = rng.choice(np.array(pool), n)
        assert_same_text(svg_line_plot(np.append(series, tail), threshold=threshold,
                                       title=title),
                         reference_svg(series, threshold, title))
