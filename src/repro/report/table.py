"""Monospace text tables for experiment output."""

from __future__ import annotations

from typing import Any, Sequence

__all__ = ["TextTable"]


class TextTable:
    """Accumulate rows and render an aligned monospace table.

    >>> t = TextTable(["policy", "rejected"])
    >>> t.add_row(["temporal", 32])
    >>> print(t.render())  # doctest: +NORMALIZE_WHITESPACE
    policy   | rejected
    ---------+---------
    temporal |       32
    """

    def __init__(self, headers: Sequence[str], *, title: str = ""):
        if not headers:
            raise ValueError("a table needs at least one column")
        self.title = title
        self.headers = [str(h) for h in headers]
        self.rows: list[list[str]] = []

    def add_row(self, cells: Sequence[Any]) -> None:
        """Append a row; cell count must match the headers."""
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append([_fmt(cell) for cell in cells])

    def render(self) -> str:
        """Render the table; numeric-looking cells are right-aligned."""
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        right = [all(_numeric(row[i]) for row in self.rows) if self.rows else False
                 for i in range(len(self.headers))]

        def fmt_row(cells: Sequence[str]) -> str:
            parts = []
            for i, cell in enumerate(cells):
                parts.append(cell.rjust(widths[i]) if right[i] else cell.ljust(widths[i]))
            return " | ".join(parts).rstrip()

        lines = []
        if self.title:
            lines.append(self.title)
        lines.append(fmt_row(self.headers))
        lines.append("-+-".join("-" * w for w in widths))
        lines.extend(fmt_row(row) for row in self.rows)
        return "\n".join(lines)


def _fmt(cell: Any) -> str:
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)


def _numeric(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False
