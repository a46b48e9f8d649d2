"""Deterministic plot emission: SVG scatter plots and plain-text PGM heatmaps.

No timestamps, no locale formatting; identical inputs give byte-identical
files. Regression lines are drawn with stroke opacity equal to their R^2,
floored at 0.1 so poor fits stay faintly visible.
"""

from __future__ import annotations

import numpy as np

from . import tensorio
from .errors import InvalidInputError
from .spectral import PsdMap
from .tables import fmt_float

OPACITY_FLOOR = 0.1

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)

_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 170, 40, 55


def emit_scatter_svg(
    points,
    lines,
    out,
    x_label: str = "probit(ID accuracy)",
    y_label: str = "probit(OOD accuracy)",
    title: str | None = None,
) -> None:
    """Write a scatter plot with per-group regression lines.

    ``points`` is a sequence of (x, y, group, ci), such as a regression's
    ModelPoints, where ci is None or a (low, high) pair of y values drawn as
    a vertical whisker. ``lines`` is a sequence of (group, slope, intercept,
    r_squared), such as a regression's GroupFits; further items are ignored.
    """
    points = list(points)
    if not points:
        raise InvalidInputError("scatter plot needs at least one point")
    lines = list(lines)

    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    for p in points:
        if p[3] is not None:
            ys.extend([p[3][0], p[3][1]])
    x_lo, x_hi = _padded_range(min(xs), max(xs))
    y_lo, y_hi = _padded_range(min(ys), max(ys))

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    groups = sorted({p[2] for p in points} | {ln[0] for ln in lines})
    color = {g: _PALETTE[i % len(_PALETTE)] for i, g in enumerate(groups)}

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]

    for i in range(5):
        frac = i / 4.0
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        xp, yp = px(xv), py(yv)
        parts.append(
            f'<line x1="{fmt_float(xp)}" y1="{_MARGIN_T + plot_h}" x2="{fmt_float(xp)}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{fmt_float(xp)}" y="{_MARGIN_T + plot_h + 18}" font-size="10" '
            f'text-anchor="middle" font-family="sans-serif">{_tick(xv)}</text>'
        )
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{fmt_float(yp)}" x2="{_MARGIN_L}" '
            f'y2="{fmt_float(yp)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{fmt_float(yp + 3)}" font-size="10" '
            f'text-anchor="end" font-family="sans-serif">{_tick(yv)}</text>'
        )

    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2}" y="{_HEIGHT - 15}" font-size="12" '
        f'text-anchor="middle" font-family="sans-serif">{_escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_T + plot_h / 2}" font-size="12" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 18 {_MARGIN_T + plot_h / 2})">'
        f"{_escape(y_label)}</text>"
    )
    if title:
        parts.append(
            f'<text x="{_MARGIN_L + plot_w / 2}" y="25" font-size="14" '
            f'text-anchor="middle" font-family="sans-serif">{_escape(title)}</text>'
        )

    for group, slope, intercept, r2, *_ in lines:
        opacity = min(max(float(r2), OPACITY_FLOOR), 1.0)
        y1 = slope * x_lo + intercept
        y2 = slope * x_hi + intercept
        parts.append(
            f'<line x1="{fmt_float(px(x_lo))}" y1="{fmt_float(py(y1))}" '
            f'x2="{fmt_float(px(x_hi))}" y2="{fmt_float(py(y2))}" '
            f'stroke="{color[group]}" stroke-width="2" stroke-opacity="{fmt_float(opacity)}"/>'
        )

    for x, y, group, ci in points:
        if ci is not None:
            lo, hi = ci
            parts.append(
                f'<line x1="{fmt_float(px(x))}" y1="{fmt_float(py(lo))}" '
                f'x2="{fmt_float(px(x))}" y2="{fmt_float(py(hi))}" '
                f'stroke="{color[group]}" stroke-width="1"/>'
            )
            for yv in (lo, hi):
                parts.append(
                    f'<line x1="{fmt_float(px(x) - 3)}" y1="{fmt_float(py(yv))}" '
                    f'x2="{fmt_float(px(x) + 3)}" y2="{fmt_float(py(yv))}" '
                    f'stroke="{color[group]}" stroke-width="1"/>'
                )
        parts.append(
            f'<circle cx="{fmt_float(px(x))}" cy="{fmt_float(py(y))}" r="3" '
            f'fill="{color[group]}"/>'
        )

    legend_x = _MARGIN_L + plot_w + 15
    for i, group in enumerate(groups):
        ly = _MARGIN_T + 10 + 18 * i
        parts.append(
            f'<rect x="{legend_x}" y="{ly - 8}" width="10" height="10" fill="{color[group]}"/>'
        )
        parts.append(
            f'<text x="{legend_x + 15}" y="{ly}" font-size="11" '
            f'font-family="sans-serif">{_escape(str(group))}</text>'
        )

    parts.append("</svg>")
    with tensorio.atomic_open(out, "wb") as fh:
        fh.write("\n".join(parts).encode("utf-8"))
        fh.write(b"\n")


def emit_pgm(psd_map: PsdMap, out) -> None:
    """Write a DC-centered log-scale heatmap as plain-text PGM (P2, maxval 65535)."""
    power = np.asarray(psd_map.power, dtype=np.float64)
    log_map = np.log10(np.abs(power) + 1e-12)
    lo, hi = log_map.min(), log_map.max()
    if hi > lo:
        levels = np.rint(65535.0 * (log_map - lo) / (hi - lo)).astype(np.int64)
    else:
        levels = np.zeros(power.shape, dtype=np.int64)
    centered = np.fft.fftshift(levels)
    h, w = centered.shape
    rows = ["P2", f"{w} {h}", "65535"]
    rows.extend(" ".join(str(v) for v in row) for row in centered)
    with tensorio.atomic_open(out, "wb") as fh:
        fh.write("\n".join(rows).encode("ascii"))
        fh.write(b"\n")


def _padded_range(lo: float, hi: float) -> tuple[float, float]:
    if hi <= lo:
        return lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _tick(v: float) -> str:
    return np.format_float_positional(np.float64(v), precision=4, unique=False, trim="-")


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
