"""Minimal deterministic SVG line plots.

Hand-rolled on purpose: output is a pure function of the inputs (stable float
formatting, no timestamps, no generated ids), so plot files can be diffed and
golden-tested. Only what the CLI needs: stacked panels of time series with
optional vertical event markers and horizontal reference lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

__all__ = ["Series", "VLine", "HLine", "Panel", "render_svg"]

_WIDTH = 960
_PANEL_HEIGHT = 260
_MARGIN_L = 64.0
_MARGIN_R = 16.0
_MARGIN_TOP = 28.0
_MARGIN_BOT = 36.0

_STYLE = """
  text { font-family: monospace; font-size: 12px; fill: #333; }
  .title { font-size: 14px; }
  .axis { stroke: #333; stroke-width: 1; fill: none; }
  .grid { stroke: #ddd; stroke-width: 0.5; fill: none; }
  .s0 { stroke: #1f77b4; stroke-width: 1.2; fill: none; }
  .s1 { stroke: #ff7f0e; stroke-width: 1.2; fill: none; }
  .vmark { stroke: #d62728; stroke-width: 1.2; stroke-dasharray: 4 3; fill: none; }
  .vtruth { stroke: #7f7f7f; stroke-width: 1.0; stroke-dasharray: 1 3; fill: none; }
  .href { stroke: #9467bd; stroke-width: 1.0; stroke-dasharray: 6 3; fill: none; }
"""


def _fmt(x: float) -> str:
    # shortest stable form; -0 normalized so output is diff-friendly
    if x == 0.0:
        x = 0.0
    return format(float(x), ".6g")


def _nice_ticks(lo: float, hi: float, target: int = 6) -> List[float]:
    """Round tick positions covering [lo, hi]."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    raw = (hi - lo) / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


@dataclass
class Series:
    x: Sequence[float]
    y: Sequence[float]
    css: str = "s0"


@dataclass
class VLine:
    x: float
    css: str = "vmark"


@dataclass
class HLine:
    y: float


@dataclass
class Panel:
    series: List[Series] = field(default_factory=list)
    vlines: List[VLine] = field(default_factory=list)
    hlines: List[HLine] = field(default_factory=list)
    ylabel: str = ""


def _data_range(vals, include=()) -> Tuple[float, float]:
    lo = math.inf
    hi = -math.inf
    for v in vals:
        fv = float(v)
        if math.isfinite(fv):
            lo = min(lo, fv)
            hi = max(hi, fv)
    for fv in include:
        if math.isfinite(fv):
            lo = min(lo, fv)
            hi = max(hi, fv)
    if lo > hi:
        return 0.0, 1.0
    if lo == hi:
        return lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _panel_svg(p: Panel, x_range, top: float, plot_w: float, plot_h: float, is_last: bool) -> List[str]:
    x_lo, x_hi = x_range
    y_vals: List[float] = []
    for s in p.series:
        y_vals.extend(float(v) for v in s.y)
    y_lo, y_hi = _data_range(y_vals, include=[h.y for h in p.hlines])

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = []
    # grid + y tick labels
    for ty in _nice_ticks(y_lo, y_hi):
        yy = _fmt(py(ty))
        out.append(f'<line class="grid" x1="{_fmt(_MARGIN_L)}" y1="{yy}" x2="{_fmt(_MARGIN_L + plot_w)}" y2="{yy}"/>')
        out.append(f'<text x="{_fmt(_MARGIN_L - 6)}" y="{yy}" text-anchor="end" dominant-baseline="middle">{_fmt(ty)}</text>')
    for tx in _nice_ticks(x_lo, x_hi, target=8):
        xx = _fmt(px(tx))
        out.append(f'<line class="grid" x1="{xx}" y1="{_fmt(top)}" x2="{xx}" y2="{_fmt(top + plot_h)}"/>')
        if is_last:
            out.append(f'<text x="{xx}" y="{_fmt(top + plot_h + 16)}" text-anchor="middle">{_fmt(tx)}</text>')
    # reference lines and event markers under the data
    for h in p.hlines:
        yy = _fmt(py(h.y))
        out.append(f'<line class="href" x1="{_fmt(_MARGIN_L)}" y1="{yy}" x2="{_fmt(_MARGIN_L + plot_w)}" y2="{yy}"/>')
    for v in p.vlines:
        if x_lo <= v.x <= x_hi:
            xx = _fmt(px(v.x))
            out.append(f'<line class="{v.css}" x1="{xx}" y1="{_fmt(top)}" x2="{xx}" y2="{_fmt(top + plot_h)}"/>')
    for s in p.series:
        pts = " ".join(
            f"{_fmt(px(float(xv)))},{_fmt(py(float(yv)))}"
            for xv, yv in zip(s.x, s.y)
            if math.isfinite(float(yv))
        )
        if pts:
            out.append(f'<polyline class="{s.css}" points="{pts}"/>')
    if p.ylabel:
        cx = _fmt(16.0)
        cy = _fmt(top + plot_h / 2)
        out.append(f'<text x="{cx}" y="{cy}" text-anchor="middle" transform="rotate(-90 {cx} {cy})">{p.ylabel}</text>')
    out.append(
        f'<rect class="axis" x="{_fmt(_MARGIN_L)}" y="{_fmt(top)}" '
        f'width="{_fmt(plot_w)}" height="{_fmt(plot_h)}"/>'
    )
    return out


def render_svg(panels: Sequence[Panel], title: str = "") -> str:
    """Stacked panels sharing one x range (union over all series)."""
    if not panels:
        raise ValueError("need at least one panel")
    xs: List[float] = []
    for p in panels:
        for s in p.series:
            if len(s.x):
                xs.append(float(s.x[0]))
                xs.append(float(s.x[-1]))
        xs.extend(float(v.x) for v in p.vlines)
    x_lo, x_hi = _data_range(xs)
    if not xs:
        x_lo, x_hi = 0.0, 1.0

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    total_h = _MARGIN_TOP + len(panels) * (_PANEL_HEIGHT + _MARGIN_BOT)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_fmt(total_h)}" '
        f'viewBox="0 0 {_WIDTH} {_fmt(total_h)}">',
        f"<style>{_STYLE}</style>",
    ]
    if title:
        out.append(f'<text class="title" x="{_fmt(_MARGIN_L)}" y="18">{_escape(title)}</text>')
    top = _MARGIN_TOP
    for i, p in enumerate(panels):
        is_last = i == len(panels) - 1
        out.extend(_panel_svg(p, (x_lo, x_hi), top, plot_w, float(_PANEL_HEIGHT), is_last))
        top += _PANEL_HEIGHT + _MARGIN_BOT
    out.append(
        f'<text x="{_fmt(_MARGIN_L + plot_w / 2)}" y="{_fmt(total_h - 6)}" '
        f'text-anchor="middle">time</text>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
