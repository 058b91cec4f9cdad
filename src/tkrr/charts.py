"""Line charts of sweep summaries as self-contained SVG 1.1 documents.

One polyline per method over the sweep values, optional one-sd error
bars, axes with evenly spaced ticks, and a legend. No external fonts or
scripts, fixed 640x480 geometry, coordinates rounded to a fixed number of
decimals so the same summary always yields byte-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .harness import SummaryRow

__all__ = ["ChartSpec", "emit_svg_lines"]

WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 72, 24, 48, 56

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
N_TICKS = 5


@dataclass(frozen=True)
class ChartSpec:
    title: str = ""
    x_label: str = ""
    y_label: str = ""
    error_bars: bool = False


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:.4g}"


def _pad_range(lo: float, hi: float) -> tuple[float, float]:
    # 5% padding; degenerate ranges get an absolute pad so scales stay finite
    span = hi - lo
    pad = 0.05 * span if span > 0 else max(0.05 * abs(hi), 0.5)
    return lo - pad, hi + pad


def _series(rows: Sequence[SummaryRow]) -> dict[str, list[SummaryRow]]:
    by_method: dict[str, list[SummaryRow]] = {}
    for r in rows:
        if isinstance(r.mean_error, float) and math.isnan(r.mean_error):
            continue
        by_method.setdefault(r.method, []).append(r)
    return {m: grp for m, grp in by_method.items() if grp}


def emit_svg_lines(
    rows: Sequence[SummaryRow], chart: ChartSpec, path: str | Path
) -> Path:
    """Render summary rows to an SVG file and return its path."""
    series = _series(rows)
    if not series:
        raise ValueError("no plottable rows (all cells failed?)")

    xs = [r.sweep_value for grp in series.values() for r in grp]
    ys = [r.mean_error for grp in series.values() for r in grp]
    if any(not isinstance(v, (int, float)) for v in xs):
        raise ValueError("sweep values must be numeric to plot")
    if chart.error_bars:
        ys += [r.mean_error - r.std_error for grp in series.values() for r in grp]
        ys += [r.mean_error + r.std_error for grp in series.values() for r in grp]
    x_lo, x_hi = _pad_range(min(xs), max(xs))
    y_lo, y_hi = _pad_range(min(ys), max(ys))

    px_w = WIDTH - MARGIN_L - MARGIN_R
    px_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(v: float) -> float:
        return MARGIN_L + (v - x_lo) / (x_hi - x_lo) * px_w

    def sy(v: float) -> float:
        return HEIGHT - MARGIN_B - (v - y_lo) / (y_hi - y_lo) * px_h

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if chart.title:
        out.append(
            f'<text x="{WIDTH // 2}" y="28" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{_esc(chart.title)}</text>'
        )

    ax = f'stroke="black" stroke-width="1"'
    x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{WIDTH - MARGIN_R}" y2="{y0}" {ax}/>')
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{MARGIN_T}" {ax}/>')

    for i in range(N_TICKS):
        f = i / (N_TICKS - 1)
        xv = x_lo + f * (x_hi - x_lo)
        yv = y_lo + f * (y_hi - y_lo)
        xp, yp = sx(xv), sy(yv)
        out.append(f'<line x1="{_fmt(xp)}" y1="{y0}" x2="{_fmt(xp)}" y2="{y0 + 5}" {ax}/>')
        out.append(
            f'<text x="{_fmt(xp)}" y="{y0 + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_tick_label(xv)}</text>'
        )
        out.append(f'<line x1="{x0 - 5}" y1="{_fmt(yp)}" x2="{x0}" y2="{_fmt(yp)}" {ax}/>')
        out.append(
            f'<text x="{x0 - 8}" y="{_fmt(yp + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_tick_label(yv)}</text>'
        )

    if chart.x_label:
        out.append(
            f'<text x="{MARGIN_L + px_w // 2}" y="{HEIGHT - 14}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{_esc(chart.x_label)}</text>'
        )
    if chart.y_label:
        cx, cy = 18, MARGIN_T + px_h // 2
        out.append(
            f'<text x="{cx}" y="{cy}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 {cx} {cy})">{_esc(chart.y_label)}</text>'
        )

    for mi, (method, grp) in enumerate(series.items()):
        color = PALETTE[mi % len(PALETTE)]
        pts = sorted(grp, key=lambda r: r.sweep_value)
        coords = " ".join(f"{_fmt(sx(r.sweep_value))},{_fmt(sy(r.mean_error))}" for r in pts)
        if chart.error_bars:
            for r in pts:
                xp = sx(r.sweep_value)
                lo, hi = sy(r.mean_error - r.std_error), sy(r.mean_error + r.std_error)
                bar = f'stroke="{color}" stroke-width="1"'
                out.append(
                    f'<line x1="{_fmt(xp)}" y1="{_fmt(lo)}" x2="{_fmt(xp)}" y2="{_fmt(hi)}" {bar}/>'
                )
                for yy in (lo, hi):
                    out.append(
                        f'<line x1="{_fmt(xp - 3)}" y1="{_fmt(yy)}" '
                        f'x2="{_fmt(xp + 3)}" y2="{_fmt(yy)}" {bar}/>'
                    )
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>'
        )
        for r in pts:
            out.append(
                f'<circle cx="{_fmt(sx(r.sweep_value))}" cy="{_fmt(sy(r.mean_error))}" '
                f'r="2.5" fill="{color}"/>'
            )

    lx, ly = WIDTH - MARGIN_R - 150, MARGIN_T + 8
    for mi, method in enumerate(series):
        color = PALETTE[mi % len(PALETTE)]
        yy = ly + 16 * mi
        out.append(
            f'<line x1="{lx}" y1="{yy - 4}" x2="{lx + 22}" y2="{yy - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{lx + 28}" y="{yy}" font-family="sans-serif" '
            f'font-size="12">{_esc(method)}</text>'
        )

    out.append("</svg>")
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text("\n".join(out) + "\n")
    return p


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
