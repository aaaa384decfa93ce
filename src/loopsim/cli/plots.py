"""Minimal SVG line plots: axes, one polyline per file, optional threshold."""

from __future__ import annotations

from xml.sax.saxutils import escape

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


def svg_line_plot(series, threshold: float | None = None,
                  title: str = "") -> str:
    """An SVG document plotting a series' finite prefix against its index."""
    values = np.asarray(series, dtype=float)
    values = values[:np.isfinite(np.append(values, np.nan)).argmin()].tolist() or [0.0]
    bounds = values + ([threshold] if threshold is not None else [])
    lo, hi = min(min(bounds), 0.0), max(bounds)
    xs = _scale(np.arange(len(values)), 0, max(len(values) - 1, 1), MARGIN, WIDTH - MARGIN)
    ys = _scale(np.array(values), lo, hi, HEIGHT - MARGIN, MARGIN)
    points = " ".join(" ".join(map(",".join, zip(*t))) for _, t in column_blocks([xs, ys], ".2f"))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
    ]
    if threshold is not None:
        ty = _scale(threshold, lo, hi, HEIGHT - MARGIN, MARGIN)
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
