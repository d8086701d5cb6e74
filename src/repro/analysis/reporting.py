"""Formatting helpers for experiment results.

The benchmark harness prints the same rows/series the paper's figures plot;
these helpers turn the dictionaries returned by
:mod:`repro.analysis.experiments` and :mod:`repro.scenarios` into aligned
text tables for the console and ``benchmarks/output/``, and into
self-contained HTML reports.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Sequence

from ..errors import ConfigurationError


def _fmt(value: object, precision: int = 3) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    precision: int = 3,
) -> str:
    """Render an aligned, pipe-separated text table."""
    if not headers:
        raise ConfigurationError("format_table needs at least one header")
    str_rows = [[_fmt(cell, precision) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ConfigurationError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    lines.append(" | ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def series_table(
    series: Mapping[str, Mapping[object, float]],
    x_label: str = "x",
    precision: int = 3,
) -> str:
    """Render ``{series name: {x: y}}`` as one table with a shared x column."""
    if not series:
        raise ConfigurationError("series_table needs at least one series")
    xs: List[object] = []
    for values in series.values():
        for x in values:
            if x not in xs:
                xs.append(x)
    # Series dicts arrive in whatever order each sweep produced them; sort the
    # shared x column when the values are comparable so merged tables read in
    # axis order, and keep insertion order for mixed/unorderable x values.
    try:
        xs = sorted(xs)  # type: ignore[type-var]
    except TypeError:
        pass
    headers = [x_label] + list(series)
    rows = []
    for x in xs:
        row: List[object] = [x]
        for name in series:
            row.append(series[name].get(x, float("nan")))
        rows.append(row)
    return format_table(headers, rows, precision=precision)


def summarize_sweep(
    sweep: Mapping[str, Mapping[float, Mapping[str, float]]],
    metric: str = "throughput_mbps",
) -> Dict[str, Dict[float, float]]:
    """Extract one metric from a throughput-sweep result into plain series."""
    out: Dict[str, Dict[float, float]] = {}
    for strategy, per_budget in sweep.items():
        out[strategy] = {budget: summary.get(metric, float("nan")) for budget, summary in per_budget.items()}
    return out


def ratio(numerator: float, denominator: float) -> float:
    """Safe ratio used when reporting speedups.

    ``0 / 0`` is "no signal", not "infinite speedup", so it reports ``nan``;
    a non-zero numerator over zero reports signed infinity.
    """
    if denominator == 0:
        if numerator == 0 or numerator != numerator:
            return float("nan")
        return float("inf") if numerator > 0 else float("-inf")
    return numerator / denominator


def speedup_table(
    sweep: Mapping[str, Mapping[float, Mapping[str, float]]],
    reference: str,
    metric: str = "throughput_mbps",
) -> str:
    """Table of each strategy's metric relative to a reference strategy."""
    if reference not in sweep:
        raise ConfigurationError(f"reference strategy {reference!r} not in sweep")
    series = summarize_sweep(sweep, metric)
    ref = series[reference]
    relative: Dict[str, Dict[object, float]] = {}
    for strategy, values in series.items():
        relative[strategy] = {
            budget: ratio(value, ref.get(budget, float("nan")))
            for budget, value in values.items()
        }
    return series_table(relative, x_label="cpu_budget")


def flatten_rows(results: Iterable[Mapping[str, object]], columns: Sequence[str]) -> List[List[object]]:
    """Project dict-shaped results onto a fixed column order."""
    return [[row.get(col, "") for col in columns] for row in results]


# ---------------------------------------------------------------------------
# Self-contained HTML reports.
# ---------------------------------------------------------------------------

#: Line colors for chart series, cycled in declaration order.
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_CHART_WIDTH = 640
_CHART_HEIGHT = 360
_MARGIN_LEFT = 64
_MARGIN_RIGHT = 16
_MARGIN_TOP = 24
_MARGIN_BOTTOM = 48

_REPORT_CSS = """
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 60rem;
       color: #1a1a1a; }
h1 { border-bottom: 2px solid #1f77b4; padding-bottom: 0.3rem; }
h2 { margin-top: 2rem; }
p.subtitle { color: #555; font-family: monospace; }
pre { background: #f6f6f6; border: 1px solid #ddd; border-radius: 4px;
      padding: 0.8rem; overflow-x: auto; font-size: 0.85rem; }
svg { background: #fff; border: 1px solid #ddd; border-radius: 4px; }
""".strip()


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def _svg_number(value: float) -> str:
    """Deterministic short formatting for SVG coordinates and tick labels."""
    return f"{value:.6g}"


def _finite_points(values: Mapping[object, float]) -> List[tuple]:
    points = []
    for x, y in values.items():
        try:
            fx, fy = float(x), float(y)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            continue
        if math.isfinite(fx) and math.isfinite(fy):
            points.append((fx, fy))
    points.sort(key=lambda point: point[0])
    return points


def render_chart(
    series: Mapping[str, Mapping[object, float]],
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render ``{series name: {x: y}}`` as a self-contained inline SVG.

    Pure string generation — no plotting dependency — and deterministic for a
    given input, so report output is golden-testable.  Non-finite points are
    skipped; series with no plottable points are dropped from the chart.
    """
    plottable = {
        name: _finite_points(values)
        for name, values in series.items()
        if _finite_points(values)
    }
    if not plottable:
        return "<p><em>(no plottable data)</em></p>"

    all_x = [x for points in plottable.values() for x, _ in points]
    all_y = [y for points in plottable.values() for _, y in points]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(0.0, min(all_y)), max(all_y)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0

    plot_w = _CHART_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _CHART_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(x: float) -> float:
        return _MARGIN_LEFT + plot_w * (x - x_lo) / (x_hi - x_lo)

    def sy(y: float) -> float:
        return _MARGIN_TOP + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CHART_WIDTH}" '
        f'height="{_CHART_HEIGHT}" viewBox="0 0 {_CHART_WIDTH} {_CHART_HEIGHT}" '
        f'role="img">'
    ]
    # Axes + gridlines with 5 ticks per axis.
    ticks = 5
    for i in range(ticks):
        frac = i / (ticks - 1)
        gx = x_lo + frac * (x_hi - x_lo)
        gy = y_lo + frac * (y_hi - y_lo)
        px, py = sx(gx), sy(gy)
        parts.append(
            f'<line x1="{_svg_number(px)}" y1="{_MARGIN_TOP}" '
            f'x2="{_svg_number(px)}" y2="{_MARGIN_TOP + plot_h}" '
            f'stroke="#eee"/>'
        )
        parts.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{_svg_number(py)}" '
            f'x2="{_MARGIN_LEFT + plot_w}" y2="{_svg_number(py)}" '
            f'stroke="#eee"/>'
        )
        parts.append(
            f'<text x="{_svg_number(px)}" y="{_MARGIN_TOP + plot_h + 16}" '
            f'font-size="11" text-anchor="middle">{_svg_number(gx)}</text>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 6}" y="{_svg_number(py + 4)}" '
            f'font-size="11" text-anchor="end">{_svg_number(gy)}</text>'
        )
    parts.append(
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#999"/>'
    )
    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2}" y="{_CHART_HEIGHT - 8}" '
        f'font-size="12" text-anchor="middle">{_escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="14" y="{_MARGIN_TOP + plot_h / 2}" font-size="12" '
        f'text-anchor="middle" '
        f'transform="rotate(-90 14 {_MARGIN_TOP + plot_h / 2})">'
        f"{_escape(y_label)}</text>"
    )
    # Series lines, points, and legend.
    for index, (name, points) in enumerate(plottable.items()):
        color = _PALETTE[index % len(_PALETTE)]
        coords = " ".join(
            f"{_svg_number(sx(x))},{_svg_number(sy(y))}" for x, y in points
        )
        if len(points) > 1:
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="2"/>'
            )
        for x, y in points:
            parts.append(
                f'<circle cx="{_svg_number(sx(x))}" cy="{_svg_number(sy(y))}" '
                f'r="3" fill="{color}"/>'
            )
        legend_y = _MARGIN_TOP + 14 + 16 * index
        parts.append(
            f'<rect x="{_MARGIN_LEFT + 10}" y="{legend_y - 9}" width="12" '
            f'height="12" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT + 27}" y="{legend_y + 2}" '
            f'font-size="12">{_escape(str(name))}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def render_report(
    title: str,
    sections: Sequence[Mapping[str, object]],
    subtitle: str = "",
) -> str:
    """Render scenario results as one self-contained HTML document.

    Each section mapping may carry ``heading`` (required), ``body`` (text,
    rendered preformatted), ``series`` (``{name: {x: y}}`` for an inline SVG
    line chart), and ``x_label`` / ``y_label``.  The output embeds all styling
    and graphics — no external assets, no scripts — so a single file is the
    entire artifact.
    """
    if not title:
        raise ConfigurationError("render_report needs a non-empty title")
    parts: List[str] = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{_escape(title)}</title>",
        f"<style>{_REPORT_CSS}</style>",
        "</head><body>",
        f"<h1>{_escape(title)}</h1>",
    ]
    if subtitle:
        parts.append(f'<p class="subtitle">{_escape(subtitle)}</p>')
    for section in sections:
        heading = str(section.get("heading", ""))
        if not heading:
            raise ConfigurationError("every report section needs a heading")
        parts.append(f"<h2>{_escape(heading)}</h2>")
        body = section.get("body")
        if body:
            parts.append(f"<pre>{_escape(str(body))}</pre>")
        series = section.get("series")
        if series:
            parts.append(
                render_chart(
                    series,  # type: ignore[arg-type]
                    x_label=str(section.get("x_label", "x")),
                    y_label=str(section.get("y_label", "y")),
                )
            )
    parts.append("</body></html>")
    return "\n".join(parts)
