"""Minimal standalone SVG line/step plots.

Emitted plots accompany experiment CSVs so results stay inspectable
without any plotting toolchain.  Output is deterministic text.
"""

from __future__ import annotations

import math

from .errors import EmptyPlotError

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 72, 24, 40, 56


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if not math.isfinite(lo) or not math.isfinite(hi):
        return []
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _fmt(x: float) -> str:
    return f"{x:.6g}"


class _Scale:
    def __init__(self, lo, hi, out_lo, out_hi, log=False):
        self.log = log
        if log:
            lo, hi = math.log10(lo), math.log10(hi)
        if hi <= lo:
            hi = lo + 1.0
        self.lo, self.hi = lo, hi
        self.out_lo, self.out_hi = out_lo, out_hi

    def __call__(self, x: float) -> float:
        v = math.log10(x) if self.log else x
        f = (v - self.lo) / (self.hi - self.lo)
        return self.out_lo + f * (self.out_hi - self.out_lo)

    def ticks(self):
        if not self.log:
            return [(t, _fmt(t)) for t in _nice_ticks(self.lo, self.hi)]
        out = []
        for e in range(math.floor(self.lo), math.ceil(self.hi) + 1):
            if self.lo - 1e-9 <= e <= self.hi + 1e-9:
                out.append((10.0 ** e, _fmt(10.0 ** e)))
        return out


def line_plot(
    series,
    *,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    logx: bool = False,
    logy: bool = False,
    step: bool = False,
) -> str:
    """Render series as an SVG string.

    ``series`` is a list of ``(label, xs, ys)``; non-finite points are
    dropped, and log axes drop non-positive values.  Raises
    :class:`~seqrisk.errors.EmptyPlotError` when no point is left.
    """
    cleaned = []
    for label, xs, ys in series:
        pts = [
            (float(x), float(y))
            for x, y in zip(xs, ys)
            if math.isfinite(x) and math.isfinite(y)
            and (not logx or x > 0) and (not logy or y > 0)
        ]
        if pts:
            cleaned.append((label, pts))
    if not cleaned:
        raise EmptyPlotError("nothing to plot")

    all_x = [x for _, pts in cleaned for x, _ in pts]
    all_y = [y for _, pts in cleaned for _, y in pts]
    pad = lambda lo, hi: (lo, hi) if hi > lo else (lo - 0.5, hi + 0.5)
    x_lo, x_hi = pad(min(all_x), max(all_x))
    y_lo, y_hi = pad(min(all_y), max(all_y))
    if not logy and y_lo > 0 and y_lo < 0.3 * y_hi:
        y_lo = 0.0
    sx = _Scale(x_lo, x_hi, _MARGIN_L, _WIDTH - _MARGIN_R, log=logx)
    sy = _Scale(y_lo, y_hi, _HEIGHT - _MARGIN_B, _MARGIN_T, log=logy)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="monospace" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    axis_y = _HEIGHT - _MARGIN_B
    out.append(
        f'<line x1="{_MARGIN_L}" y1="{axis_y}" x2="{_WIDTH - _MARGIN_R}" y2="{axis_y}" stroke="black"/>'
    )
    out.append(
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" y2="{axis_y}" stroke="black"/>'
    )
    for t, label in sx.ticks():
        px = sx(t)
        out.append(f'<line x1="{px:.2f}" y1="{axis_y}" x2="{px:.2f}" y2="{axis_y + 5}" stroke="black"/>')
        out.append(
            f'<text x="{px:.2f}" y="{axis_y + 18}" text-anchor="middle">{label}</text>'
        )
    for t, label in sy.ticks():
        py = sy(t)
        out.append(f'<line x1="{_MARGIN_L - 5}" y1="{py:.2f}" x2="{_MARGIN_L}" y2="{py:.2f}" stroke="black"/>')
        out.append(
            f'<text x="{_MARGIN_L - 8}" y="{py + 4:.2f}" text-anchor="end">{label}</text>'
        )
    if title:
        out.append(
            f'<text x="{_WIDTH / 2}" y="{_MARGIN_T - 14}" text-anchor="middle" '
            f'font-size="15">{title}</text>'
        )
    if xlabel:
        out.append(
            f'<text x="{(_MARGIN_L + _WIDTH - _MARGIN_R) / 2}" y="{_HEIGHT - 14}" '
            f'text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        cy = (_MARGIN_T + axis_y) / 2
        out.append(
            f'<text x="18" y="{cy}" text-anchor="middle" transform="rotate(-90 18 {cy})">{ylabel}</text>'
        )

    for i, (label, pts) in enumerate(cleaned):
        color = _PALETTE[i % len(_PALETTE)]
        coords = []
        prev = None
        for x, y in pts:
            px, py = sx(x), sy(y)
            if step and prev is not None:
                coords.append(f"{px:.2f},{prev:.2f}")
            coords.append(f"{px:.2f},{py:.2f}")
            prev = py
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.6" '
            f'points="{" ".join(coords)}"/>'
        )
        ly = _MARGIN_T + 16 + 16 * i
        lx = _WIDTH - _MARGIN_R - 150
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 28}" y="{ly}">{label}</text>')

    out.append("</svg>")
    return "\n".join(out)


def table_plot(table, *, task_prefix: str, statistic: str, x_from_task: bool = True,
               title: str = "", xlabel: str = "", ylabel: str = "",
               logx: bool = False, logy: bool = False) -> str:
    """Plot one statistic of an :class:`~seqrisk.experiments.ExperimentTable`.

    Rows are grouped into one series per estimator kind.  The x value is
    parsed from ``task`` (``axis=value``) or taken from ``n`` when
    ``x_from_task`` is false.
    """
    series = {}
    for row in table.rows:
        if row.statistic != statistic or not row.task.startswith(task_prefix):
            continue
        if x_from_task:
            try:
                x = float(row.task.split("=", 1)[1])
            except (IndexError, ValueError):
                continue
        else:
            x = float(row.n)
        series.setdefault(row.kind or statistic, []).append((x, row.value))
    data = [
        (kind, [p[0] for p in sorted(pts)], [p[1] for p in sorted(pts)])
        for kind, pts in sorted(series.items())
    ]
    return line_plot(data, title=title, xlabel=xlabel, ylabel=ylabel, logx=logx, logy=logy)
