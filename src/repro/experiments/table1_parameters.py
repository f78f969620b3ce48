"""Table 1 — two-step lifetime parameters for the lecture capture system.

Regenerates the paper's table from the calendar module: for each term its
begin day-of-year, the ``t_persist = term_end − today`` rule and the wane
duration — plus concrete example annotations for captures early, mid and
late in each term, demonstrating that every object of a term stops
persisting at the same calendar instant.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.importance import TwoStepImportance
from repro.report.table import TextTable
from repro.sim.workload.calendar import (
    PAPER_CALENDAR,
    AcademicCalendar,
    university_lifetime_for_day,
)
from repro.units import days, to_days
from repro.sim.parallel import RunSpec

__all__ = ["Table1Result", "execute", "render", "CSV_HEADERS", "csv_rows"]


@dataclass(frozen=True)
class Table1Result:
    """The regenerated table plus per-term example annotations."""

    rows: tuple[tuple[str, int, str, float], ...]
    #: ``{term: [(capture_doy, t_persist_days, t_wane_days), ...]}``
    examples: dict[str, tuple[tuple[int, float, float], ...]]


def _run(*, calendar: AcademicCalendar = PAPER_CALENDAR) -> Table1Result:
    """Regenerate Table 1 from the calendar specs."""
    rows = []
    examples: dict[str, tuple[tuple[int, float, float], ...]] = {}
    for spec in calendar.specs:
        rows.append(
            (
                spec.term.value.capitalize(),
                spec.begin_doy,
                f"{spec.end_doy} - today",
                spec.wane_days,
            )
        )
        sample_days = (
            spec.begin_doy,
            (spec.begin_doy + spec.end_doy) // 2,
            spec.end_doy - 1,
        )
        term_examples = []
        for doy in sample_days:
            lifetime = university_lifetime_for_day(days(doy), calendar)
            assert isinstance(lifetime, TwoStepImportance)
            term_examples.append(
                (doy, to_days(lifetime.t_persist), to_days(lifetime.t_wane))
            )
        examples[spec.term.value] = tuple(term_examples)
    return Table1Result(rows=tuple(rows), examples=examples)


def render(result: Table1Result) -> str:
    """Printable reproduction of Table 1."""
    table = TextTable(
        ["Term", "TermBegin (day of year)", "t_persist (in days)", "t_wane (in days)"],
        title="Table 1: lifetimes for the lecture capture system",
    )
    for term, begin, persist_rule, wane in result.rows:
        table.add_row([term, begin, persist_rule, int(wane)])
    chunks = [table.render()]
    for term, rows in result.examples.items():
        sub = TextTable(
            ["capture day-of-year", "t_persist (d)", "t_wane (d)"],
            title=f"Example annotations — {term}",
        )
        for doy, persist, wane in rows:
            sub.add_row([doy, round(persist, 1), round(wane, 1)])
        chunks.append(sub.render())
    return "\n\n".join(chunks)


CSV_HEADERS = ("term", "begin_doy", "t_persist", "t_wane_days")


def csv_rows(result: Table1Result) -> list[tuple]:
    """Table 1 itself, one row per term."""
    return list(result.rows)


def execute(spec: RunSpec) -> Table1Result:
    """Run this experiment from a :class:`RunSpec` (the stable entry point)."""
    return _run(**spec.call_kwargs(seed=False, horizon=False))
