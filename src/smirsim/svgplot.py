"""Tiny dependency-free SVG writers: line charts and heatmaps.

Plots are derived views of the CSV outputs and never feed back into them.
Only the two chart kinds the CLI emits are supported.
"""

from __future__ import annotations

import math
from typing import Sequence

WIDTH, HEIGHT = 760, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 24, 36, 48
PLOT_H = HEIGHT - MARGIN_T - MARGIN_B

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f",
)

# Compact viridis-like ramp; linearly interpolated.
_RAMP = (
    (68, 1, 84), (71, 44, 122), (59, 81, 139), (44, 113, 142), (33, 144, 141),
    (39, 173, 129), (92, 200, 99), (170, 220, 50), (253, 231, 37),
)


def _color(t: float) -> str:
    t = min(max(t, 0.0), 1.0)
    x = t * (len(_RAMP) - 1)
    i = min(int(x), len(_RAMP) - 2)
    f = x - i
    r, g, b = (round(a + (b2 - a) * f) for a, b2 in zip(_RAMP[i], _RAMP[i + 1]))
    return f"#{r:02x}{g:02x}{b:02x}"


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / n
    mag = 10 ** math.floor(math.log10(raw))
    step = min(s for s in (mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * step:
        out.append(round(t, 12))
        t += step
    return out or [lo]


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e12:
        return str(int(v))
    return f"{v:.4g}"


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _write_frame(path, font_size, body, plot_w, title, xlabel, ylabel) -> None:
    """Write the SVG at `path`: a white page in `font_size` type, the title,
    the `body` elements, then the axis labels centered on the plot area."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'font-family="sans-serif" font-size="{font_size}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2}" y="20" text-anchor="middle" font-size="14">{_esc(title)}</text>'
        )
    parts += body
    if xlabel:
        parts.append(
            f'<text x="{MARGIN_L + plot_w / 2}" y="{HEIGHT - 10}" text-anchor="middle">{_esc(xlabel)}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="16" y="{MARGIN_T + PLOT_H / 2}" text-anchor="middle" '
            f'transform="rotate(-90 16 {MARGIN_T + PLOT_H / 2})">{_esc(ylabel)}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(parts) + "\n")


def line_chart(
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    path,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> None:
    """Write an SVG line chart. ``series`` is (label, xs, ys) per line."""
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(min(ys_all), 0.0), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi == y_lo:
        y_hi = y_lo + 1
    plot_w = WIDTH - MARGIN_L - MARGIN_R

    def px(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return MARGIN_T + PLOT_H - (y - y_lo) / (y_hi - y_lo) * PLOT_H

    parts = []
    for t in _ticks(x_lo, x_hi):
        x = px(t)
        parts.append(
            f'<line x1="{x:.1f}" y1="{MARGIN_T}" x2="{x:.1f}" y2="{MARGIN_T + PLOT_H}" '
            f'stroke="#ddd"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{MARGIN_T + PLOT_H + 16}" text-anchor="middle">{_fmt(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(
            f'<line x1="{MARGIN_L}" y1="{y:.1f}" x2="{MARGIN_L + plot_w}" y2="{y:.1f}" '
            f'stroke="#ddd"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 6}" y="{y + 4:.1f}" text-anchor="end">{_fmt(t)}</text>'
        )
    parts.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{PLOT_H}" '
        f'fill="none" stroke="#333"/>'
    )
    for k, (label, xs, ys) in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        points = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        if label:
            ly = MARGIN_T + 14 + 16 * k
            lx = MARGIN_L + plot_w - 150
            parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
            parts.append(f'<text x="{lx + 28}" y="{ly}">{_esc(label)}</text>')
    _write_frame(path, 12, parts, plot_w, title, xlabel, ylabel)


def heatmap(
    values,
    x_ticks: Sequence[float],
    y_ticks: Sequence[float],
    path,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    marks: Sequence[tuple[float, float]] = (),
) -> None:
    """Write an SVG heatmap of ``values[y][x]`` with optional point marks."""
    rows = len(values)
    cols = len(values[0])
    v_lo = min(min(row) for row in values)
    v_hi = max(max(row) for row in values)
    if v_hi == v_lo:
        v_hi = v_lo + 1
    plot_w = WIDTH - MARGIN_L - MARGIN_R - 60  # room for the colorbar
    cell_w = plot_w / cols
    cell_h = PLOT_H / rows
    parts = []
    for r in range(rows):
        for c in range(cols):
            t = (values[r][c] - v_lo) / (v_hi - v_lo)
            x = MARGIN_L + c * cell_w
            y = MARGIN_T + PLOT_H - (r + 1) * cell_h
            parts.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{cell_w + 0.5:.1f}" '
                f'height="{cell_h + 0.5:.1f}" fill="{_color(t)}"/>'
            )
    step_x = max(1, cols // 8)
    for c in range(0, cols, step_x):
        x = MARGIN_L + (c + 0.5) * cell_w
        parts.append(
            f'<text x="{x:.1f}" y="{MARGIN_T + PLOT_H + 16}" text-anchor="middle">{_fmt(x_ticks[c])}</text>'
        )
    step_y = max(1, rows // 8)
    for r in range(0, rows, step_y):
        y = MARGIN_T + PLOT_H - (r + 0.5) * cell_h
        parts.append(
            f'<text x="{MARGIN_L - 6}" y="{y + 4:.1f}" text-anchor="end">{_fmt(y_ticks[r])}</text>'
        )
    for mx, my in marks:
        cx = MARGIN_L + (list(x_ticks).index(mx) + 0.5) * cell_w
        cy = MARGIN_T + PLOT_H - (list(y_ticks).index(my) + 0.5) * cell_h
        parts.append(f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="3.5" fill="black"/>')
    # Colorbar.
    bar_x = MARGIN_L + plot_w + 20
    for k in range(100):
        y = MARGIN_T + PLOT_H * (1 - (k + 1) / 100)
        parts.append(
            f'<rect x="{bar_x}" y="{y:.1f}" width="14" height="{PLOT_H / 100 + 0.5:.1f}" '
            f'fill="{_color(k / 99)}"/>'
        )
    parts.append(
        f'<text x="{bar_x + 18}" y="{MARGIN_T + PLOT_H}" font-size="10">{_fmt(v_lo)}</text>'
    )
    parts.append(f'<text x="{bar_x + 18}" y="{MARGIN_T + 10}" font-size="10">{_fmt(v_hi)}</text>')
    _write_frame(path, 11, parts, plot_w, title, xlabel, ylabel)
