"""Tiny deterministic SVG writer for diagnostics.

Emits self-contained SVG text with no timestamps and fixed number
formatting, so repeated runs produce byte-identical files. Two plot kinds
cover everything the command-line suites need: a log-log scatter with a
fitted slope line, and a matrix heatmap with a small value legend.
"""
from __future__ import annotations

import math

import numpy as np

_WIDTH = 640
_HEIGHT = 480
_MARGIN_L = 70
_MARGIN_R = 20
_MARGIN_T = 40
_MARGIN_B = 50

# Heatmaps larger than this are decimated by striding so the SVG stays small.
_MAX_HEAT_CELLS = 64


def heat_stride(n: int) -> int:
    """The stride by which heatmap decimates an axis of n entries."""
    return max(1, math.ceil(n / _MAX_HEAT_CELLS))


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _svg_header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH // 2}" y="22" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>',
    ]


def _axis_ticks(lo: float, hi: float, n: int = 5) -> np.ndarray:
    return np.linspace(lo, hi, n)


def loglog_plot(
    x: np.ndarray,
    y: np.ndarray,
    title: str,
    xlabel: str,
    ylabel: str,
    slope: float | None = None,
) -> str:
    """Scatter of (x, y) on log10 axes with an optional fitted slope line."""
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    if xs.size == 0 or ys.size == 0 or xs.size != ys.size:
        raise ValueError("need matching nonempty x and y data")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log plot needs strictly positive data")
    lx = np.log10(xs)
    ly = np.log10(ys)
    x_lo, x_hi = float(lx.min()), float(lx.max())
    y_lo, y_hi = float(ly.min()), float(ly.max())
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad_x = 0.05 * (x_hi - x_lo)
    pad_y = 0.08 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(v: float) -> float:
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return _MARGIN_T + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = _svg_header(title)
    parts.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="black"/>'
    )
    for tv in _axis_ticks(x_lo, x_hi):
        xp = px(tv)
        parts.append(
            f'<line x1="{_fmt(xp)}" y1="{_MARGIN_T + plot_h}" x2="{_fmt(xp)}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(xp)}" y="{_MARGIN_T + plot_h + 18}" '
            f'text-anchor="middle" font-family="monospace" font-size="10">'
            f"1e{tv:.1f}</text>"
        )
    for tv in _axis_ticks(y_lo, y_hi):
        yp = py(tv)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{_fmt(yp)}" x2="{_MARGIN_L}" '
            f'y2="{_fmt(yp)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{_fmt(yp + 3)}" text-anchor="end" '
            f'font-family="monospace" font-size="10">1e{tv:.1f}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w // 2}" y="{_HEIGHT - 10}" '
        f'text-anchor="middle" font-family="monospace" font-size="12">'
        f"{xlabel}</text>"
    )
    parts.append(
        f'<text x="16" y="{_MARGIN_T + plot_h // 2}" text-anchor="middle" '
        f'font-family="monospace" font-size="12" '
        f'transform="rotate(-90 16 {_MARGIN_T + plot_h // 2})">{ylabel}</text>'
    )
    if slope is not None and xs.size >= 2:
        inter = float(np.mean(ly - slope * lx))
        x_fit = np.array([lx.min(), lx.max()])
        y_fit = slope * x_fit + inter
        parts.append(
            f'<line x1="{_fmt(px(x_fit[0]))}" y1="{_fmt(py(y_fit[0]))}" '
            f'x2="{_fmt(px(x_fit[1]))}" y2="{_fmt(py(y_fit[1]))}" '
            f'stroke="steelblue" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L + plot_w - 8}" y="{_MARGIN_T + 16}" '
            f'text-anchor="end" font-family="monospace" font-size="12" '
            f'fill="steelblue">slope = {slope:.3f}</text>'
        )
    for xv, yv in zip(lx, ly):
        parts.append(
            f'<circle cx="{_fmt(px(xv))}" cy="{_fmt(py(yv))}" r="4" '
            f'fill="firebrick"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def zscore_plot(labels: list[str], z_values: np.ndarray, title: str) -> str:
    """Linear scatter of |z| per check with the acceptance line at 4."""
    zs = np.abs(np.asarray(z_values, dtype=float))
    if zs.size == 0 or len(labels) != zs.size:
        raise ValueError("need matching nonempty labels and z-scores")
    y_hi = max(5.0, float(zs[np.isfinite(zs)].max()) * 1.2 if np.isfinite(zs).any() else 5.0)
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B - 14 * min(len(labels), 8)

    def px(i: int) -> float:
        return _MARGIN_L + (i + 0.5) / zs.size * plot_w

    def py(v: float) -> float:
        return _MARGIN_T + (y_hi - min(v, y_hi)) / y_hi * plot_h

    parts = _svg_header(title)
    parts.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
        f'height="{_fmt(plot_h)}" fill="none" stroke="black"/>'
    )
    thr = py(4.0)
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{_fmt(thr)}" x2="{_MARGIN_L + plot_w}" '
        f'y2="{_fmt(thr)}" stroke="firebrick" stroke-dasharray="4 3"/>'
    )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w - 6}" y="{_fmt(thr - 4)}" text-anchor="end" '
        f'font-family="monospace" font-size="10" fill="firebrick">|z| = 4</text>'
    )
    for tv in _axis_ticks(0.0, y_hi):
        yp = py(tv)
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{_fmt(yp + 3)}" text-anchor="end" '
            f'font-family="monospace" font-size="10">{tv:.1f}</text>'
        )
    for i, z in enumerate(zs):
        shown = z if np.isfinite(z) else y_hi
        parts.append(
            f'<circle cx="{_fmt(px(i))}" cy="{_fmt(py(shown))}" r="4" '
            f'fill="steelblue"/>'
        )
        parts.append(
            f'<text x="{_fmt(px(i))}" y="{_fmt(_MARGIN_T + plot_h + 12)}" '
            f'text-anchor="middle" font-family="monospace" font-size="9">{i}</text>'
        )
    for i, lab in enumerate(labels[:8]):
        parts.append(
            f'<text x="{_MARGIN_L}" y="{_fmt(_MARGIN_T + plot_h + 26 + 13 * i)}" '
            f'font-family="monospace" font-size="10">{i}: {lab}</text>'
        )
    if len(labels) > 8:
        parts.append(
            f'<text x="{_MARGIN_L}" y="{_fmt(_MARGIN_T + plot_h + 26 + 13 * 8)}" '
            f'font-family="monospace" font-size="10">... {len(labels) - 8} more</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def heatmap(matrix: np.ndarray, title: str, axis_label: str = "index") -> str:
    """Grayscale-to-blue heatmap of a matrix with min/max legend swatches."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.size == 0:
        raise ValueError("heatmap needs a nonempty 2-d matrix")
    stride = heat_stride(max(m.shape))
    m = m[::stride, ::stride]
    lo = float(m.min())
    hi = float(m.max())
    span = hi - lo if hi > lo else 1.0
    rows, cols = m.shape
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R - 60
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B
    cw = plot_w / cols
    ch = plot_h / rows
    parts = _svg_header(title)
    for i in range(rows):
        for j in range(cols):
            frac = (m[i, j] - lo) / span
            r = int(round(255 * (1.0 - frac)))
            g = int(round(255 * (1.0 - 0.6 * frac)))
            parts.append(
                f'<rect x="{_fmt(_MARGIN_L + j * cw)}" '
                f'y="{_fmt(_MARGIN_T + i * ch)}" width="{_fmt(cw + 0.5)}" '
                f'height="{_fmt(ch + 0.5)}" fill="rgb({r},{g},255)"/>'
            )
    parts.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{_fmt(plot_w)}" '
        f'height="{plot_h}" fill="none" stroke="black"/>'
    )
    leg_x = _MARGIN_L + plot_w + 14
    for k, (val, frac) in enumerate([(hi, 1.0), ((hi + lo) / 2, 0.5), (lo, 0.0)]):
        r = int(round(255 * (1.0 - frac)))
        g = int(round(255 * (1.0 - 0.6 * frac)))
        y0 = _MARGIN_T + 20 + 40 * k
        parts.append(
            f'<rect x="{leg_x}" y="{y0}" width="14" height="14" '
            f'fill="rgb({r},{g},255)" stroke="black"/>'
        )
        parts.append(
            f'<text x="{leg_x}" y="{y0 + 26}" font-family="monospace" '
            f'font-size="9">{val:.3g}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w // 2}" y="{_HEIGHT - 10}" '
        f'text-anchor="middle" font-family="monospace" font-size="12">'
        f"{axis_label}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(path: str, content: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content)
