"""Text rendering for the paper harness: tables, headlines, charts.

The paper's figures are log-log line charts; a terminal reproduction
renders the same series as tables (one row per window size, one column
per algorithm), the derived headline ratios ("on average X% higher
than the second best ..."), and :func:`ascii_chart` — the same series
as a character plot, one letter per algorithm on logarithmic axes, so
the *shape* (flat vs degrading curves, crossovers) shows at a glance.
Pure text, no plotting dependencies, deterministic output.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from repro.metrics.stats import geometric_mean


class Table:
    """A fixed-width text table."""

    def __init__(self, title: str, headers: Sequence[str]):
        self.title = title
        self.headers = list(headers)
        self.rows: List[List[str]] = []

    def add_row(self, cells: Sequence[object]) -> None:
        """Append a row; cells are stringified."""
        self.rows.append([_format_cell(cell) for cell in cells])

    def to_csv(self) -> str:
        """The table as CSV (header row first, no title)."""
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.headers)
        writer.writerows(self.rows)
        return buffer.getvalue()

    def to_json(self) -> str:
        """The table as a JSON object with title, headers, and rows."""
        import json

        return json.dumps(
            {
                "title": self.title,
                "headers": self.headers,
                "rows": self.rows,
            },
            indent=2,
        )

    def render(self) -> str:
        """The table as aligned text."""
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [self.title, ""]
        lines.append(
            "  ".join(
                h.rjust(w) for h, w in zip(self.headers, widths)
            )
        )
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append(
                "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
            )
        return "\n".join(lines)


def _format_cell(cell: object) -> str:
    if cell is None:
        return "-"
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 10:
            return f"{cell:.1f}"
        return f"{cell:.3f}"
    return str(cell)


def series_table(
    title: str,
    row_label: str,
    rows: Sequence[object],
    series: Dict[str, Dict[object, Optional[float]]],
    columns: Sequence[str],
) -> Table:
    """Build a table with one row per sweep point, one column per series.

    Args:
        title: Table heading.
        row_label: Header for the sweep column (e.g. ``"window"``).
        rows: Sweep points in display order.
        series: ``{column: {row: value or None}}``.
        columns: Column order.
    """
    table = Table(title, [row_label] + list(columns))
    for row in rows:
        table.add_row(
            [row] + [series.get(col, {}).get(row) for col in columns]
        )
    return table


def improvement_summary(
    series: Dict[str, Dict[object, Optional[float]]],
    subject: str,
    higher_is_better: bool = True,
) -> str:
    """Headline ratios in the paper's phrasing.

    Computes, per sweep point, how the ``subject`` algorithm compares
    to the best competitor, then reports the geometric-mean and maximum
    advantage — the paper's "on average N% ... with a maximum of M%".
    """
    gains: List[float] = []
    for row, value in series.get(subject, {}).items():
        if value is None:
            continue
        rivals = [
            other[row]
            for name, other in series.items()
            if name != subject and other.get(row) is not None
        ]
        if not rivals:
            continue
        best_rival = max(rivals) if higher_is_better else min(rivals)
        if best_rival <= 0 or value <= 0:
            continue
        gains.append(
            value / best_rival if higher_is_better else best_rival / value
        )
    if not gains:
        return f"{subject}: no comparable points"
    mean_gain = geometric_mean(gains)
    max_gain = max(gains)
    losing = sum(1 for g in gains if g < 1.0)
    return (
        f"{subject} vs best competitor: average {100 * (mean_gain - 1):+.0f}%"
        f", max {100 * (max_gain - 1):+.0f}%"
        f" ({losing}/{len(gains)} sweep points behind)"
    )


#: Fallback plot glyphs for names whose letters are all taken.
GLYPHS = "0123456789#@%&+="


def _assign_glyphs(names: Sequence[str]) -> Dict[str, str]:
    """One distinctive character per series, preferring its initials.

    ``slickdeque`` → ``S``, ``naive`` → ``N``, and when two names
    share every candidate letter the second falls back to lowercase
    and then to a numeral pool — always unique, always deterministic.
    """
    assigned: Dict[str, str] = {}
    taken = set()
    for name in names:
        candidates = [c.upper() for c in name if c.isalnum()]
        candidates += [c.lower() for c in name if c.isalnum()]
        candidates += list(GLYPHS)
        for candidate in candidates:
            if candidate not in taken:
                assigned[name] = candidate
                taken.add(candidate)
                break
    return assigned


def _log(value: float) -> float:
    return math.log10(value) if value > 0 else 0.0


def ascii_chart(
    series: Dict[str, Dict[int, Optional[float]]],
    title: str,
    width: int = 64,
    height: int = 16,
    x_label: str = "window (log)",
    y_label: str = "rate (log)",
) -> str:
    """Render a log-log character chart of ``{name: {x: y}}`` series.

    Points from different series that collide on the same cell show
    ``*``.  Series order determines glyph assignment; the legend maps
    glyphs back to names.
    """
    glyphs = _assign_glyphs(list(series))
    points: List = []
    for name, by_x in series.items():
        glyph = glyphs[name]
        for x, y in by_x.items():
            if y is not None and y > 0 and x > 0:
                points.append((glyph, _log(x), _log(y)))
    if not points:
        return f"{title}\n(no data)"

    x_low = min(p[1] for p in points)
    x_high = max(p[1] for p in points)
    y_low = min(p[2] for p in points)
    y_high = max(p[2] for p in points)
    x_span = (x_high - x_low) or 1.0
    y_span = (y_high - y_low) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for glyph, x, y in points:
        column = round((x - x_low) / x_span * (width - 1))
        row = height - 1 - round((y - y_low) / y_span * (height - 1))
        cell = grid[row][column]
        grid[row][column] = glyph if cell in (" ", glyph) else "*"

    lines = [title, ""]
    top = f"10^{y_high:.1f}"
    bottom = f"10^{y_low:.1f}"
    margin = max(len(top), len(bottom)) + 1
    for row_index, row in enumerate(grid):
        if row_index == 0:
            label = top
        elif row_index == height - 1:
            label = bottom
        else:
            label = ""
        lines.append(f"{label:>{margin}} |" + "".join(row))
    lines.append(" " * margin + "-" * (width + 2))
    axis = f"10^{x_low:.1f}"
    axis_end = f"10^{x_high:.1f}"
    lines.append(
        " " * margin
        + f" {axis}{' ' * max(1, width - len(axis) - len(axis_end))}"
        f"{axis_end}  {x_label}"
    )
    legend = "  ".join(
        f"{glyphs[name]}={name}" for name in series
    )
    lines.append(f"{'':>{margin}} {legend}   [y: {y_label}]")
    return "\n".join(lines)
