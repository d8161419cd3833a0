"""Minimal SVG charts, no plotting dependency.

Each chart embeds its exact numeric series in a ``<desc>`` element
(full-precision repr), so the rendered file and any CSV built from the
same in-memory data can be cross-checked exactly.
"""

from __future__ import annotations

import html
from functools import partial
from typing import Callable, Mapping, Sequence

_escape = partial(html.escape, quote=False)  # &, < and >, all that XML text needs

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")

_WIDTH, _HEIGHT = 880, 440
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 72, 24, 48, 56
_PLOT_W, _PLOT_H = _WIDTH - _MARGIN_L - _MARGIN_R, _HEIGHT - _MARGIN_T - _MARGIN_B
_BORDER = (
    f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{_PLOT_W}" height="{_PLOT_H}" '
    'fill="none" stroke="#888888"/>\n'
)


def _series_desc(xs: Sequence[float], series: Mapping[str, Sequence[float]]) -> str:
    parts = ["x=" + ",".join(repr(float(x)) for x in xs)]
    for label in series:
        parts.append(_escape(label) + "=" + ",".join(repr(float(y)) for y in series[label]))
    return ";".join(parts)


def _axis_range(values: Sequence[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if lo == hi:
        pad = 1.0 if lo == 0 else abs(lo) * 0.1
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _frame(title: str, x_label: str, y_label: str, body: str, desc: str) -> str:
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif">\n'
        f"<desc>{desc}</desc>\n"
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>\n'
        f'<text x="{_WIDTH / 2}" y="24" text-anchor="middle" font-size="16">{_escape(title)}</text>\n'
        f'<text x="{_WIDTH / 2}" y="{_HEIGHT - 12}" text-anchor="middle" font-size="12">'
        f"{_escape(x_label)}</text>\n"
        f'<text x="16" y="{_HEIGHT / 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {_HEIGHT / 2})">{_escape(y_label)}</text>\n'
        f"{body}"
        "</svg>\n"
    )


def _y_scale(
    xs: Sequence, series: Mapping[str, Sequence[float]], names: tuple[str, str, str], floor: bool
) -> tuple[Callable[[float], float], str]:
    """The y-to-pixel map of a chart of ``series`` over ``xs``, which must
    hold one value per x, and its y ticks' SVG. ``names`` name the chart,
    its xs and their unit in errors; ``floor`` starts the y axis at 0 or below."""
    chart, xs_name, unit = names
    if not xs or not series:
        raise ValueError(f"{chart} needs {xs_name} and at least one series")
    for label, ys in series.items():
        if len(ys) != len(xs):
            raise ValueError(f"series {label!r} length {len(ys)} != {len(xs)} {unit}")

    all_y = [y for ys in series.values() for y in ys]
    y0, y1 = _axis_range(all_y)
    if floor:
        y0 = min(0.0, min(all_y))

    def py(y: float) -> float:
        return _MARGIN_T + (1 - (y - y0) / (y1 - y0)) * _PLOT_H

    ticks = []
    for i in range(5):
        v = y0 + (y1 - y0) * i / 4
        y = py(v)
        ticks.append(
            f'<line x1="{_MARGIN_L}" y1="{y:.2f}" x2="{_WIDTH - _MARGIN_R}" y2="{y:.2f}" '
            'stroke="#dddddd" stroke-width="1"/>\n'
            f'<text x="{_MARGIN_L - 6}" y="{y + 4:.2f}" text-anchor="end" font-size="11">'
            f"{v:.5g}</text>\n"
        )
    return py, "".join(ticks)


def line_chart(
    xs: Sequence[float],
    series: Mapping[str, Sequence[float]],
    title: str,
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Polyline chart of one or more equally-long series over xs."""
    py, y_ticks = _y_scale(xs, series, ("line_chart", "xs", "x values"), floor=False)
    x0, x1 = _axis_range(list(xs))

    def px(x: float) -> float:
        return _MARGIN_L + (x - x0) / (x1 - x0) * _PLOT_W

    body = [y_ticks]
    for i in range(5):
        v = x0 + (x1 - x0) * i / 4
        body.append(
            f'<text x="{px(v):.2f}" y="{_HEIGHT - _MARGIN_B + 18}" text-anchor="middle" '
            f'font-size="11">{v:.5g}</text>\n'
        )
    body.append(_BORDER)
    for k, (label, ys) in enumerate(series.items()):
        color = PALETTE[k % len(PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        body.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>\n'
        )
        ly = _MARGIN_T + 16 + 16 * k
        body.append(
            f'<line x1="{_WIDTH - _MARGIN_R - 150}" y1="{ly - 4}" x2="{_WIDTH - _MARGIN_R - 126}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>\n'
            f'<text x="{_WIDTH - _MARGIN_R - 120}" y="{ly}" font-size="11">{_escape(label)}</text>\n'
        )
    return _frame(title, x_label, y_label, "".join(body), _series_desc(xs, series))


def grouped_bar_chart(
    categories: Sequence,
    series: Mapping[str, Sequence[float]],
    title: str,
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Side-by-side bars per category, one bar per series."""
    names = ("grouped_bar_chart", "categories", "categories")
    py, y_ticks = _y_scale(categories, series, names, floor=True)
    n_cat, n_ser = len(categories), len(series)
    slot = _PLOT_W / n_cat
    bar = slot * 0.8 / n_ser

    body = [y_ticks]
    base = _MARGIN_T + _PLOT_H  # py of the y axis' floor
    for k, (label, ys) in enumerate(series.items()):
        color = PALETTE[k % len(PALETTE)]
        for c, y in enumerate(ys):
            x = _MARGIN_L + c * slot + slot * 0.1 + k * bar
            top = py(y)
            body.append(
                f'<rect x="{x:.2f}" y="{top:.2f}" width="{bar:.2f}" '
                f'height="{max(0.0, base - top):.2f}" fill="{color}"/>\n'
            )
        ly = _MARGIN_T + 16 + 16 * k
        body.append(
            f'<rect x="{_WIDTH - _MARGIN_R - 150}" y="{ly - 10}" width="12" height="10" '
            f'fill="{color}"/>\n'
            f'<text x="{_WIDTH - _MARGIN_R - 132}" y="{ly}" font-size="11">{_escape(label)}</text>\n'
        )
    step = max(1, n_cat // 20)
    for c in range(0, n_cat, step):
        cx = _MARGIN_L + c * slot + slot / 2
        body.append(
            f'<text x="{cx:.2f}" y="{_HEIGHT - _MARGIN_B + 18}" text-anchor="middle" '
            f'font-size="11">{_escape(str(categories[c]))}</text>\n'
        )
    body.append(_BORDER)
    xs = list(range(len(categories)))
    return _frame(title, x_label, y_label, "".join(body), _series_desc(xs, series))
