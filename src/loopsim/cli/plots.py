"""Minimal SVG line plots: axes, one polyline per file, optional threshold."""

from __future__ import annotations

import functools
import math
from html import escape

import numpy as np

from ..columns import column_blocks

WIDTH = 640
HEIGHT = 400
MARGIN = 48


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo
    if span <= 0.0:
        span = 1.0
    return out_lo + (values - lo) / span * (out_hi - out_lo)


@functools.lru_cache(maxsize=16)
def _points_templates(n: int) -> tuple[str, ...]:
    """Per row block of an n-point series: each x at .2f, then ',%s' for its y.
    A template per block, not one per series, keeps a plot's peak memory low."""
    xs = _scale(np.arange(n), 0, max(n - 1, 1), MARGIN, WIDTH - MARGIN)
    return tuple(" ".join(x + ",%s" for x in texts) for _, (texts,) in column_blocks([xs], ".2f"))


def svg_line_plot(series, threshold: float | None = None,
                  title: str = "") -> str:
    """An SVG document plotting a series' finite prefix against its index;
    only a finite threshold draws a line and bounds the axes."""
    values = np.asarray(series, dtype=float)
    values = values[:np.isfinite(np.append(values, np.nan)).argmin()]
    if not len(values):
        values = np.zeros(1)
    finite = threshold is not None and math.isfinite(threshold)
    extra = (threshold,) if finite else ()
    lo = min(float(values.min()), *extra, 0.0)
    hi = max((float(values.max()), *extra))
    ys = _scale(values, lo, hi, HEIGHT - MARGIN, MARGIN)
    points = " ".join(template % tuple(texts) for template, (_, (texts,))
                      in zip(_points_templates(len(values)), column_blocks([ys], ".2f")))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
    ]
    if finite:
        ty = _scale(threshold, lo, hi, HEIGHT - MARGIN, MARGIN)
        parts.append(
            f'<line x1="{MARGIN}" y1="{ty:.2f}" x2="{WIDTH - MARGIN}" '
            f'y2="{ty:.2f}" stroke="red" stroke-dasharray="6,4"/>')
    if title:
        parts.append(
            f'<text x="{MARGIN}" y="{MARGIN - 16}" font-size="14">'
            f'{escape(title, quote=False)}</text>')
    parts.append(
        f'<polyline fill="none" stroke="steelblue" stroke-width="1.5" '
        f'points="{points}"/>')
    parts.append("</svg>")
    return "\n".join(parts)
