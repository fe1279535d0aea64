"""Minimal static SVG line charts (no plotting dependency).

Only what the command line needs: one chart, up to a few series drawn as
polylines with markers, a linear or logarithmic x axis, a logarithmic y
axis, tick labels, and a legend. Output is a complete standalone ``.svg``
document.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import DomainError

__all__ = ["render_line_chart"]

_WIDTH = 720
_HEIGHT = 460
_MARGIN_L = 78
_MARGIN_R = 24
_MARGIN_T = 46
_MARGIN_B = 58
_COLORS = ("#1f6fb2", "#d1495b", "#3a7d44", "#8d6a9f")


def _ticks_linear(lo: float, hi: float) -> list:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / 4
    return [lo + i * step for i in range(5)]


def _ticks_log(lo: float, hi: float) -> list:
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    exps = range(lo_e, hi_e + 1)
    ticks = [10.0**e for e in exps]
    if len(ticks) > 8:
        keep = max(1, len(ticks) // 8 + 1)
        ticks = ticks[::keep]
    return ticks


def _axis_fraction(v: float, lo: float, hi: float, log: bool) -> float:
    """Where ``v`` lies in the data range ``[lo, hi]`` of a linear or base-10
    logarithmic axis, as a fraction; 0.5 when the range is empty."""
    if log:
        v, lo, hi = math.log10(v), math.log10(lo), math.log10(hi)
    return 0.5 if hi == lo else (v - lo) / (hi - lo)


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:g}"


def render_line_chart(
    path: str,
    title: str,
    xlabel: str,
    ylabel: str,
    series: Sequence[tuple],
    logx: bool = False,
) -> None:
    """Write a line chart to ``path`` as a standalone SVG document.

    Parameters
    ----------
    path : str
        Output file path.
    title, xlabel, ylabel : str
        Chart annotations.
    series : sequence of (label, xs, ys)
        Each entry is drawn as one polyline with point markers. Points with
        a nonpositive y, or a nonpositive x on a logarithmic x axis, are
        dropped.
    logx : bool
        Use a base-10 logarithmic x axis; the y axis is always one.

    Raises
    ------
    DomainError
        If no finite plottable points remain.
    """
    cleaned = []
    for label, xs, ys in series:
        pts = []
        for xv, yv in zip(xs, ys):
            if not (math.isfinite(xv) and math.isfinite(yv)) or yv <= 0:
                continue
            if logx and xv <= 0:
                continue
            pts.append((float(xv), float(yv)))
        if pts:
            cleaned.append((label, pts))
    if not cleaned:
        raise DomainError("no finite plottable points for the chart")

    all_x = [p[0] for _, pts in cleaned for p in pts]
    all_y = [p[1] for _, pts in cleaned for p in pts]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)

    def tx(v: float) -> float:
        frac = _axis_fraction(v, x_lo, x_hi, logx)
        return _MARGIN_L + frac * (_WIDTH - _MARGIN_L - _MARGIN_R)

    def ty(v: float) -> float:
        frac = _axis_fraction(v, y_lo, y_hi, True)
        return _HEIGHT - _MARGIN_B - frac * (_HEIGHT - _MARGIN_T - _MARGIN_B)

    x_ticks = _ticks_log(x_lo, x_hi) if logx else _ticks_linear(x_lo, x_hi)
    y_ticks = _ticks_log(y_lo, y_hi)
    x_ticks = [v for v in x_ticks if x_lo <= v <= x_hi] or [x_lo, x_hi]
    y_ticks = [v for v in y_ticks if y_lo <= v <= y_hi] or [y_lo, y_hi]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15" font-weight="bold">{title}</text>',
    ]

    plot_bottom = _HEIGHT - _MARGIN_B
    plot_right = _WIDTH - _MARGIN_R
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{plot_bottom}" x2="{plot_right}" y2="{plot_bottom}" '
        'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" y2="{plot_bottom}" '
        'stroke="black" stroke-width="1"/>'
    )

    for v in x_ticks:
        px = tx(v)
        parts.append(
            f'<line x1="{px:.2f}" y1="{plot_bottom}" x2="{px:.2f}" y2="{plot_bottom + 5}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{plot_bottom + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(v)}</text>'
        )
    for v in y_ticks:
        py = ty(v)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{py:.2f}" x2="{_MARGIN_L}" y2="{py:.2f}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 9}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(v)}</text>'
        )

    parts.append(
        f'<text x="{(_MARGIN_L + plot_right) / 2}" y="{_HEIGHT - 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>'
    )
    parts.append(
        f'<text x="20" y="{(_MARGIN_T + plot_bottom) / 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 20 {(_MARGIN_T + plot_bottom) / 2})">{ylabel}</text>'
    )

    for idx, (label, pts) in enumerate(cleaned):
        color = _COLORS[idx % len(_COLORS)]
        coords = " ".join(f"{tx(xv):.2f},{ty(yv):.2f}" for xv, yv in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
        for xv, yv in pts:
            parts.append(
                f'<circle cx="{tx(xv):.2f}" cy="{ty(yv):.2f}" r="2.4" fill="{color}"/>'
            )
        ly = _MARGIN_T + 16 + 16 * idx
        lx = plot_right - 170
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.8"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" font-size="11">{label}</text>'
        )

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
