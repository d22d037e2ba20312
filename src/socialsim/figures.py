"""Minimal deterministic SVG rendering for the two report figures.

Hand-rolled rather than delegated to a plotting library so the output is
byte-stable across runs and machines, diffs cleanly under version control,
and keeps countable elements (one ``class="curve"`` polyline per condition,
one ``class="seg-<action>"`` rect per share segment) that tests can assert
against. Caller text is escaped with ``html.escape`` where it enters the SVG.
"""

from __future__ import annotations

import math
from html import escape
from typing import Mapping, Sequence

ACTION_COLORS = {
    "read": "#c8c8c8",
    "like": "#4c72b0",
    "repost": "#dd8452",
    "quote": "#55a868",
}

LOAD_COLORS = {
    "lowest": "#4c72b0",
    "low": "#55a868",
    "medium": "#dd8452",
    "high": "#c44e52",
}

NORM_DASH = {
    "no_norm": "",
    "like_dominant": "6,3",
    "repost_dominant": "2,3",
}


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _svg_head(width: int, height: int, left: int, title: str) -> list[str]:
    title = escape(title)
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<title>{title}</title>',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left}" y="20" font-size="14">{title}</text>',
    ]


def stacked_share_svg(cells: Sequence[tuple[str, Mapping[str, float]]], *, title: str = "Action shares by condition") -> str:
    """Stacked bar chart: one bar per cell, segments read/like/repost/quote."""
    width, height = 900, 420
    left, right, top, bottom = 60, 20, 40, 110
    plot_w, plot_h = width - left - right, height - top - bottom
    n = max(len(cells), 1)
    bar_w = plot_w / n * 0.7
    gap = plot_w / n

    parts = _svg_head(width, height, left, title)
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = top + plot_h * (1 - frac)
        parts.append(f'<line x1="{left}" y1="{_fmt(y)}" x2="{width - right}" y2="{_fmt(y)}" stroke="#eeeeee"/>')
        parts.append(f'<text x="{left - 8}" y="{_fmt(y + 4)}" text-anchor="end">{frac:.2f}</text>')
    for i, (label, shares) in enumerate(cells):
        x = left + i * gap + (gap - bar_w) / 2
        y = top + plot_h
        for action in ("read", "like", "repost", "quote"):
            share = float(shares.get(action, 0.0))
            h = plot_h * share
            y -= h
            parts.append(
                f'<rect class="seg-{action}" x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(bar_w)}" '
                f'height="{_fmt(h)}" fill="{ACTION_COLORS[action]}"/>'
            )
        parts.append(
            f'<text x="{_fmt(x + bar_w / 2)}" y="{top + plot_h + 12}" text-anchor="start" '
            f'transform="rotate(45 {_fmt(x + bar_w / 2)} {top + plot_h + 12})" font-size="9">{escape(label)}</text>'
        )
    lx = left
    for action, color in ACTION_COLORS.items():
        parts.append(f'<rect x="{lx}" y="{height - 18}" width="10" height="10" fill="{color}"/>')
        parts.append(f'<text x="{lx + 14}" y="{height - 9}">{action}</text>')
        lx += 80
    parts.append("</svg>")
    return "\n".join(parts)


def probability_curves_svg(
    curves: Mapping[tuple[str, str], Sequence[tuple[float, float, float, float]]],
    *,
    title: str,
    y_label: str,
) -> str:
    """One polyline per (load, norm) with a translucent 95% band behind it.

    Curve points are (x, p, lo, hi). A point is left out of the polyline
    unless x and p are finite, and out of the band unless x, lo and hi are
    (an inestimable model predicts NaN rows, and SVG has no NaN coordinate);
    a condition without such points draws no polyline or band.
    """
    width, height = 900, 460
    left, right, top, bottom = 60, 170, 40, 50
    plot_w, plot_h = width - left - right, height - top - bottom

    xs = [pt[0] for pts in curves.values() for pt in pts if math.isfinite(pt[0])]
    x_min, x_max = (min(xs), max(xs)) if xs else (0.0, 1.0)
    if x_max <= x_min:
        x_max = x_min + 1.0

    def sx(x: float) -> float:
        return left + (x - x_min) / (x_max - x_min) * plot_w

    def sy(p: float) -> float:
        return top + (1.0 - min(max(p, 0.0), 1.0)) * plot_h

    parts = _svg_head(width, height, left, title)
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = top + plot_h * (1 - frac)
        parts.append(f'<line x1="{left}" y1="{_fmt(y)}" x2="{width - right}" y2="{_fmt(y)}" stroke="#eeeeee"/>')
        parts.append(f'<text x="{left - 8}" y="{_fmt(y + 4)}" text-anchor="end">{frac:.2f}</text>')
    parts.append(
        f'<text x="{_fmt(left + plot_w / 2)}" y="{height - 12}" text-anchor="middle">popularity composite</text>'
    )
    parts.append(
        f'<text x="16" y="{_fmt(top + plot_h / 2)}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_fmt(top + plot_h / 2)})">{escape(y_label)}</text>'
    )

    for (load, norm), pts in sorted(curves.items()):
        condition = f'data-load="{escape(load)}" data-norm="{escape(norm)}"'
        band = [(x, lo, hi) for x, _, lo, hi in pts if math.isfinite(x) and math.isfinite(lo) and math.isfinite(hi)]
        if band:
            outline = [(sx(x), sy(hi)) for x, _, hi in band] + [(sx(x), sy(lo)) for x, lo, _ in reversed(band)]
            band_str = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in outline)
            parts.append(
                f'<polygon class="band" {condition} points="{band_str}" '
                f'fill="{LOAD_COLORS.get(load, "#888888")}" fill-opacity="0.12" stroke="none"/>'
            )
        line = [(x, p) for x, p, _, _ in pts if math.isfinite(x) and math.isfinite(p)]
        if line:
            line_str = " ".join(f"{_fmt(sx(x))},{_fmt(sy(p))}" for x, p in line)
            dash = NORM_DASH.get(norm, "")
            dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
            parts.append(
                f'<polyline class="curve" {condition} points="{line_str}" '
                f'fill="none" stroke="{LOAD_COLORS.get(load, "#888888")}" stroke-width="1.6"{dash_attr}/>'
            )

    ly = top
    for (load, norm) in sorted(curves):
        color = LOAD_COLORS.get(load, "#888888")
        dash = NORM_DASH.get(norm, "")
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<line x1="{width - right + 10}" y1="{ly + 5}" x2="{width - right + 34}" y2="{ly + 5}" '
            f'stroke="{color}" stroke-width="1.6"{dash_attr}/>'
        )
        parts.append(f'<text x="{width - right + 40}" y="{ly + 9}" font-size="9">{escape(load)} / {escape(norm)}</text>')
        ly += 16
    parts.append("</svg>")
    return "\n".join(parts)
