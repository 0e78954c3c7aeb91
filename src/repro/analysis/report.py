"""Plain-text table and number formatting for benchmark harness output."""

from __future__ import annotations

from collections.abc import Sequence


def format_percent(value: float) -> str:
    """Format a fractional change as a percentage string (e.g. ``+2.4 %``)."""
    sign = "+" if value >= 0 else ""
    return f"{sign}{value * 100:.1f}%"


def format_factor(value: float) -> str:
    """Format a ratio as a multiplication factor (e.g. ``9.4x``)."""
    return f"{value:.2f}x"


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str | None = None) -> str:
    """Render an aligned plain-text table.

    Every cell is converted with ``str``; column widths adapt to the longest
    entry.  Used by the benchmark harness to print the same rows/series the
    paper's tables and figures report.
    """
    if not headers:
        raise ValueError("a table needs at least one column")
    str_rows = [[str(cell) for cell in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but the table has {len(headers)} columns")

    widths = [len(header) for header in headers]
    for row in str_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row(headers))
    lines.append("-+-".join("-" * width for width in widths))
    lines.extend(render_row(row) for row in str_rows)
    return "\n".join(lines)


def format_seconds(seconds: float) -> str:
    """Format a latency with an appropriate unit (s, ms, µs)."""
    if seconds < 0:
        raise ValueError("seconds must be non-negative")
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3f} ms"
    return f"{seconds * 1e6:.1f} us"


def format_joules(joules: float) -> str:
    """Format an energy with an appropriate unit (J, mJ, µJ)."""
    if joules < 0:
        raise ValueError("joules must be non-negative")
    if joules >= 1.0:
        return f"{joules:.3f} J"
    if joules >= 1e-3:
        return f"{joules * 1e3:.3f} mJ"
    return f"{joules * 1e6:.1f} uJ"
