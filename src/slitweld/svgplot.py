"""Static SVG line plots.

Deterministic output: fixed canvas, fixed palette, fixed-precision coordinates,
no timestamps or random ids.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .serialize import write_text

__all__ = ["LineSeries", "render_svg", "save_svg"]

_WIDTH = 640.0
_HEIGHT = 480.0
_MARGIN = (70.0, 20.0, 42.0, 52.0)   # left, right, top, bottom
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_FONT = "font-family=\"Helvetica,Arial,sans-serif\""
_TICK_TARGET = 5   # about this many ticks per axis


class LineSeries:
    """One polyline: x and y samples plus a legend label."""

    def __init__(self, x, y, label: str = ""):
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        if self.x.shape != self.y.shape or self.x.ndim != 1 or self.x.size < 2:
            raise ValidationError("plot series needs matching 1-d arrays of length >= 2")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise ValidationError("plot series must be finite")
        self.label = label


def _nice_ticks(lo: float, hi: float):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / _TICK_TARGET
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 0.5 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return ticks


def _fmt_tick(v: float) -> str:
    if v == 0.0:
        return "0"
    a = abs(v)
    if 1e-3 <= a < 1e4:
        s = f"{v:.4g}"
    else:
        s = f"{v:.2e}"
    return s


def _pad_range(lo: float, hi: float):
    if hi - lo < 1e-300:
        pad = max(0.5, abs(lo) * 0.1)
        return lo - pad, hi + pad
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def render_svg(series, title: str = "", xlabel: str = "", ylabel: str = "",
               equal_aspect: bool = False) -> str:
    """Render line series to an SVG document string."""
    if not series:
        raise ValidationError("need at least one series to plot")
    left, right, top, bottom = _MARGIN
    pw = _WIDTH - left - right
    ph = _HEIGHT - top - bottom

    x_lo = min(float(s.x.min()) for s in series)
    x_hi = max(float(s.x.max()) for s in series)
    y_lo = min(float(s.y.min()) for s in series)
    y_hi = max(float(s.y.max()) for s in series)
    x_lo, x_hi = _pad_range(x_lo, x_hi)
    y_lo, y_hi = _pad_range(y_lo, y_hi)
    if equal_aspect:
        # widen the shorter range so one data unit spans equal pixels both ways
        sx = (x_hi - x_lo) / pw
        sy = (y_hi - y_lo) / ph
        s_common = max(sx, sy)
        cx, cy = 0.5 * (x_lo + x_hi), 0.5 * (y_lo + y_hi)
        x_lo, x_hi = cx - 0.5 * s_common * pw, cx + 0.5 * s_common * pw
        y_lo, y_hi = cy - 0.5 * s_common * ph, cy + 0.5 * s_common * ph

    def px(x):
        return left + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y):
        return top + (y_hi - y) / (y_hi - y_lo) * ph

    out = []
    out.append(f"<svg xmlns=\"http://www.w3.org/2000/svg\" "
               f"width=\"{_WIDTH:.0f}\" height=\"{_HEIGHT:.0f}\" "
               f"viewBox=\"0 0 {_WIDTH:.0f} {_HEIGHT:.0f}\">")
    out.append(f"<rect x=\"0\" y=\"0\" width=\"{_WIDTH:.0f}\" height=\"{_HEIGHT:.0f}\" "
               f"fill=\"#ffffff\"/>")
    out.append(f"<rect x=\"{left:.2f}\" y=\"{top:.2f}\" width=\"{pw:.2f}\" "
               f"height=\"{ph:.2f}\" fill=\"none\" stroke=\"#404040\" stroke-width=\"1\"/>")

    for v in _nice_ticks(x_lo, x_hi):
        if not x_lo <= v <= x_hi:
            continue
        x = px(v)
        out.append(f"<line x1=\"{x:.2f}\" y1=\"{top + ph:.2f}\" x2=\"{x:.2f}\" "
                   f"y2=\"{top + ph + 5:.2f}\" stroke=\"#404040\" stroke-width=\"1\"/>")
        out.append(f"<text x=\"{x:.2f}\" y=\"{top + ph + 18:.2f}\" {_FONT} "
                   f"font-size=\"11\" fill=\"#202020\" text-anchor=\"middle\">"
                   f"{_fmt_tick(v)}</text>")
    for v in _nice_ticks(y_lo, y_hi):
        if not y_lo <= v <= y_hi:
            continue
        y = py(v)
        out.append(f"<line x1=\"{left - 5:.2f}\" y1=\"{y:.2f}\" x2=\"{left:.2f}\" "
                   f"y2=\"{y:.2f}\" stroke=\"#404040\" stroke-width=\"1\"/>")
        out.append(f"<text x=\"{left - 8:.2f}\" y=\"{y + 4:.2f}\" {_FONT} "
                   f"font-size=\"11\" fill=\"#202020\" text-anchor=\"end\">"
                   f"{_fmt_tick(v)}</text>")

    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(s.x, s.y))
        out.append(f"<polyline points=\"{pts}\" fill=\"none\" stroke=\"{color}\" "
                   f"stroke-width=\"1.5\"/>")

    if title:
        out.append(f"<text x=\"{_WIDTH / 2:.2f}\" y=\"24.00\" {_FONT} font-size=\"15\" "
                   f"fill=\"#000000\" text-anchor=\"middle\">{title}</text>")
    if xlabel:
        out.append(f"<text x=\"{left + pw / 2:.2f}\" y=\"{_HEIGHT - 12:.2f}\" {_FONT} "
                   f"font-size=\"12\" fill=\"#000000\" text-anchor=\"middle\">{xlabel}</text>")
    if ylabel:
        yx, yy = 18.0, top + ph / 2
        out.append(f"<text x=\"{yx:.2f}\" y=\"{yy:.2f}\" {_FONT} font-size=\"12\" "
                   f"fill=\"#000000\" text-anchor=\"middle\" "
                   f"transform=\"rotate(-90 {yx:.2f} {yy:.2f})\">{ylabel}</text>")

    labelled = [s for s in series if s.label]
    if labelled:
        lx = left + pw - 150.0
        ly = top + 10.0
        for i, s in enumerate(series):
            if not s.label:
                continue
            color = _PALETTE[i % len(_PALETTE)]
            out.append(f"<line x1=\"{lx:.2f}\" y1=\"{ly:.2f}\" x2=\"{lx + 22:.2f}\" "
                       f"y2=\"{ly:.2f}\" stroke=\"{color}\" stroke-width=\"1.5\"/>")
            out.append(f"<text x=\"{lx + 28:.2f}\" y=\"{ly + 4:.2f}\" {_FONT} "
                       f"font-size=\"11\" fill=\"#202020\">{s.label}</text>")
            ly += 16.0
    out.append("</svg>")
    return "\n".join(out) + "\n"


def save_svg(path: str, series, title: str = "", xlabel: str = "", ylabel: str = "",
             equal_aspect: bool = False):
    write_text(path, render_svg(series, title, xlabel, ylabel, equal_aspect))
