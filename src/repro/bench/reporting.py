"""Plain-text rendering of benchmark results (tables and series)."""

from __future__ import annotations

from typing import Iterable, Mapping


def _format_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.4g}"
    return str(value)


def render_table(rows: Iterable[Mapping], columns: list[str] | None = None,
                 title: str = "") -> str:
    """Render dict rows as an aligned text table."""
    rows = list(rows)
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    widths = {c: len(c) for c in columns}
    rendered_rows = []
    for row in rows:
        rendered = {c: _format_cell(row.get(c)) for c in columns}
        rendered_rows.append(rendered)
        for c in columns:
            widths[c] = max(widths[c], len(rendered[c]))
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(c.ljust(widths[c]) for c in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[c] for c in columns))
    for rendered in rendered_rows:
        lines.append(" | ".join(rendered[c].ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def render_series(points: Iterable[tuple], x_label: str, y_label: str,
                  title: str = "") -> str:
    """Render (x, y) points as the text analogue of one figure series."""
    lines = [title] if title else []
    lines.append(f"{x_label:>12} | {y_label}")
    for x, y in points:
        lines.append(f"{_format_cell(x):>12} | {_format_cell(y)}")
    return "\n".join(lines)
