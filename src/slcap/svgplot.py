"""Tiny deterministic SVG line plots.

Convenience rendering for the CLI's ``--svg`` flag; the CSV files remain the
authoritative output.  No timestamps or external resources, so repeated runs
produce byte-identical files.
"""
from __future__ import annotations

import numpy as np

__all__ = ["line_plot_svg"]

_WIDTH, _HEIGHT = 720, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 20, 44
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def line_plot_svg(x, series, xlabel: str = "", ylabel: str = "") -> str:
    """Render labelled series against a shared x axis as an SVG document.

    ``series`` is a list of (label, y-array) pairs.  Non-finite samples are
    dropped per series.  Returns the SVG text.
    """
    x = np.asarray(x, dtype=float)
    series = [(label, np.asarray(y, dtype=float)) for label, y in series]
    finite_y = np.concatenate([y[np.isfinite(y)] for _, y in series])
    if finite_y.size == 0:
        raise ValueError("nothing finite to plot")
    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo, y_hi = float(finite_y.min()), float(finite_y.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(v):  # one value or an array, in the same IEEE steps
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v):
        return _MARGIN_T + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#888" stroke-width="1"/>',
    ]

    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        xp, yp = px(xv), py(yv)
        parts.append(
            f'<line x1="{xp:.2f}" y1="{_MARGIN_T + plot_h}" x2="{xp:.2f}" '
            f'y2="{_MARGIN_T + plot_h + 4}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{xp:.2f}" y="{_MARGIN_T + plot_h + 16}" font-size="10" '
            f'text-anchor="middle" fill="#222">{xv:.4g}</text>'
        )
        parts.append(
            f'<line x1="{_MARGIN_L - 4}" y1="{yp:.2f}" x2="{_MARGIN_L}" '
            f'y2="{yp:.2f}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{yp + 3:.2f}" font-size="10" '
            f'text-anchor="end" fill="#222">{yv:.4g}</text>'
        )

    for idx, (label, y) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        finite = np.isfinite(y)
        if finite.any():
            xy = np.column_stack([px(x[finite]), py(y[finite])]).ravel().tolist()
            points = " ".join(["%.2f,%.2f"] * (len(xy) // 2)) % tuple(xy)
            parts.append(
                f'<polyline points="{points}" fill="none" stroke="{color}" '
                'stroke-width="1.5"/>'
            )
        parts.append(
            f'<text x="{_MARGIN_L + 8 + 140 * idx}" y="{_MARGIN_T + 14}" font-size="11" '
            f'fill="{color}">{label}</text>'
        )

    if xlabel:
        parts.append(
            f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 8}" font-size="12" '
            f'text-anchor="middle" fill="#000">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="14" y="{_MARGIN_T + plot_h / 2:.1f}" font-size="12" '
            f'text-anchor="middle" fill="#000" '
            f'transform="rotate(-90 14 {_MARGIN_T + plot_h / 2:.1f})">{ylabel}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
