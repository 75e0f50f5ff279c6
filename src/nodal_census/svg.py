"""Minimal SVG step-plot writer for the empirical domain-area CDF.

Deliberately dependency-free: the output is a fixed-size plot with axis
ticks, the step path of the CDF, and a shaded one-standard-error band.  Its
size, title and axis labels are module constants, as `nodal-census psi`
writes the one plot.  Each breakpoint's x is formatted once, and that list
of step positions draws both the band and the path.  Coordinates are
formatted to two decimals so output is byte-stable.
"""

from __future__ import annotations

import math

__all__ = ["step_plot_svg"]

_WIDTH = 640
_HEIGHT = 400
_TITLE = "empirical domain-area CDF"
_X_LABEL = "t"
_Y_LABEL = "psi_hat(t)"
_MARGIN_LEFT = 62.0
_MARGIN_RIGHT = 16.0
_MARGIN_TOP = 34.0
_MARGIN_BOTTOM = 46.0
_PLOT_W = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
_PLOT_H = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM


def _nice_step(span: float) -> float:
    raw = span / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0):
        if mult * mag >= raw:
            return mult * mag
    return 10.0 * mag


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _tick_label(v: float) -> str:
    if v == int(v):
        return str(int(v))
    return f"{v:g}"


def step_plot_svg(cdf) -> str:
    bp = cdf.breakpoints.tolist()
    x_max = bp[-1] * 1.05 if bp[-1] > 0 else 1.0

    def x_of(t: float) -> float:
        return _MARGIN_LEFT + max(0.0, min(t, x_max)) / x_max * _PLOT_W

    def y_of(f: float) -> float:
        return _HEIGHT - _MARGIN_BOTTOM - f * _PLOT_H

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]

    # Grid and ticks.
    xstep = _nice_step(x_max)
    ticks_x = []
    v = 0.0
    while v <= x_max + 1e-9:
        ticks_x.append(v)
        v += xstep
    ticks_y = [i / 5.0 for i in range(6)]
    parts.append('<g stroke="#dddddd" stroke-width="1">')
    for v in ticks_x:
        parts.append(
            f'<line x1="{_fmt(x_of(v))}" y1="{_fmt(y_of(0.0))}" '
            f'x2="{_fmt(x_of(v))}" y2="{_fmt(y_of(1.0))}"/>'
        )
    for f in ticks_y:
        parts.append(
            f'<line x1="{_fmt(_MARGIN_LEFT)}" y1="{_fmt(y_of(f))}" '
            f'x2="{_fmt(_WIDTH - _MARGIN_RIGHT)}" y2="{_fmt(y_of(f))}"/>'
        )
    parts.append("</g>")

    # Step i runs from breakpoint i to the next one, the last to x_max.
    xs = [_fmt(x_of(t)) for t in bp + [x_max]]
    frac = cdf.fractions.tolist()
    err = cdf.stderr.tolist()
    # Standard-error band: step outline of f+e forward, f-e backward.
    upper, lower = [], []
    for x0, x1, f, e in zip(xs, xs[1:], frac, err):
        hi, lo = _fmt(y_of(min(f + e, 1.0))), _fmt(y_of(max(f - e, 0.0)))
        upper += [f"{x0},{hi}", f"{x1},{hi}"]
        lower += [f"{x0},{lo}", f"{x1},{lo}"]
    pts = upper + lower[::-1]
    parts.append(f'<polygon points="{" ".join(pts)}" fill="#aecbe8" fill-opacity="0.7"/>')

    # The CDF itself: zero until the first breakpoint, then right-continuous steps.
    path = [f"M {_fmt(x_of(0.0))} {_fmt(y_of(0.0))}", f"H {xs[0]}"]
    for f, nxt in zip(frac, xs[1:]):
        path.append(f"V {_fmt(y_of(f))}")
        path.append(f"H {nxt}")
    parts.append(
        f'<path d="{" ".join(path)}" fill="none" stroke="#1f5fa8" stroke-width="1.5"/>'
    )

    # Axes on top of the grid.
    parts.append(
        f'<g stroke="#222222" stroke-width="1">'
        f'<line x1="{_fmt(_MARGIN_LEFT)}" y1="{_fmt(y_of(0.0))}" '
        f'x2="{_fmt(_WIDTH - _MARGIN_RIGHT)}" y2="{_fmt(y_of(0.0))}"/>'
        f'<line x1="{_fmt(_MARGIN_LEFT)}" y1="{_fmt(y_of(0.0))}" '
        f'x2="{_fmt(_MARGIN_LEFT)}" y2="{_fmt(y_of(1.0))}"/></g>'
    )
    parts.append('<g font-family="monospace" font-size="12" fill="#222222">')
    for v in ticks_x:
        parts.append(
            f'<text x="{_fmt(x_of(v))}" y="{_fmt(y_of(0.0) + 16)}" '
            f'text-anchor="middle">{_tick_label(v)}</text>'
        )
    for f in ticks_y:
        parts.append(
            f'<text x="{_fmt(_MARGIN_LEFT - 8)}" y="{_fmt(y_of(f) + 4)}" '
            f'text-anchor="end">{_tick_label(f)}</text>'
        )
    parts.append(
        f'<text x="{_fmt(_MARGIN_LEFT + _PLOT_W / 2)}" y="{_fmt(_HEIGHT - 10)}" '
        f'text-anchor="middle">{_X_LABEL}</text>'
    )
    parts.append(
        f'<text x="14" y="{_fmt(_MARGIN_TOP + _PLOT_H / 2)}" text-anchor="middle" '
        f'transform="rotate(-90 14 {_fmt(_MARGIN_TOP + _PLOT_H / 2)})">{_Y_LABEL}</text>'
    )
    parts.append(
        f'<text x="{_fmt(_MARGIN_LEFT + _PLOT_W / 2)}" y="20" '
        f'text-anchor="middle" font-size="14">{_TITLE}</text>'
    )
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
