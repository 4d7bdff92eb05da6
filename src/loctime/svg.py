"""Minimal static SVG log-log plot, written without any external renderer.

Only what the experiment artifacts need: one curve with markers on
log10 axes, decade tick labels, a title, axis labels and a one-line
legend.  Output is a plain UTF-8 ``<svg>`` document.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import ConfigError

__all__ = ["loglog_plot"]

_COLOR = "#1f6fb2"

_WIDTH = 640
_HEIGHT = 420
_MARGIN_L = 70
_MARGIN_R = 20
_MARGIN_T = 40
_MARGIN_B = 55


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _log10(values: Sequence[float], axis: str) -> list[float]:
    out = []
    for v in values:
        v = float(v)
        if v <= 0.0:
            raise ConfigError(
                f"log axis {axis} requires positive data, got {v}")
        out.append(math.log10(v))
    return out


def _decade_ticks(lo: float, hi: float):
    """(position, text) pairs at the decades within [lo, hi].

    An axis that holds no decade is labelled at its two ends instead,
    to 3 significant digits.
    """
    first = math.ceil(lo - 1e-9)
    last = math.floor(hi + 1e-9)
    if first > last:
        return [(v, f"{10.0 ** v:.3g}") for v in (lo, hi)]
    return [(float(k), f"1e{k:+03d}") for k in range(first, last + 1)]


def loglog_plot(label: str, x: Sequence[float], y: Sequence[float], *,
                title: str, xlabel: str, ylabel: str) -> str:
    """Render the curve (x, y) on log10 axes into an SVG document string."""
    if len(x) != len(y) or len(x) == 0:
        raise ConfigError("plot needs matching nonempty x and y")
    tx = _log10(x, "x")
    ty = _log10(y, "y")
    x_lo, x_hi = min(tx), max(tx)
    y_lo, y_hi = min(ty), max(ty)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad_x = 0.04 * (x_hi - x_lo)
    pad_y = 0.06 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(v: float) -> float:
        return _MARGIN_L + plot_w * (v - x_lo) / (x_hi - x_lo)

    def py(v: float) -> float:
        return _MARGIN_T + plot_h * (y_hi - v) / (y_hi - y_lo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#444" stroke-width="1"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_escape(title)}</text>',
    ]

    bottom = _MARGIN_T + plot_h
    for pos, text in _decade_ticks(x_lo, x_hi):
        if not (x_lo <= pos <= x_hi):
            continue
        x = px(pos)
        parts.append(f'<line x1="{x:.1f}" y1="{bottom}" x2="{x:.1f}" '
                     f'y2="{bottom + 5}" stroke="#444"/>')
        parts.append(f'<text x="{x:.1f}" y="{bottom + 19}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{text}</text>')
    for pos, text in _decade_ticks(y_lo, y_hi):
        if not (y_lo <= pos <= y_hi):
            continue
        y = py(pos)
        parts.append(f'<line x1="{_MARGIN_L - 5}" y1="{y:.1f}" '
                     f'x2="{_MARGIN_L}" y2="{y:.1f}" stroke="#444"/>')
        parts.append(f'<text x="{_MARGIN_L - 8}" y="{y + 4:.1f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">{text}</text>')
    parts.append(f'<text x="{_MARGIN_L + plot_w / 2:.1f}" '
                 f'y="{_HEIGHT - 12}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13">'
                 f'{_escape(xlabel)}</text>')
    cy = _MARGIN_T + plot_h / 2
    parts.append(f'<text x="16" y="{cy:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 16 {cy:.1f})">'
                 f'{_escape(ylabel)}</text>')

    pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(tx, ty))
    parts.append(f'<polyline points="{pts}" fill="none" '
                 f'stroke="{_COLOR}" stroke-width="1.6"/>')
    for a, b in zip(tx, ty):
        parts.append(f'<circle cx="{px(a):.2f}" cy="{py(b):.2f}" '
                     f'r="2.6" fill="{_COLOR}"/>')
    lx = _MARGIN_L + plot_w - 150
    ly = _MARGIN_T + 16
    parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" '
                 f'y2="{ly - 4}" stroke="{_COLOR}" stroke-width="2"/>')
    parts.append(f'<text x="{lx + 28}" y="{ly}" '
                 f'font-family="sans-serif" font-size="12">'
                 f'{_escape(label)}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
