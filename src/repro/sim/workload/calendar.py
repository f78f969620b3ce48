"""Academic calendar and Table 1 lifetime parameters (paper Section 5.2).

The paper's retention policy is keyed to the university calendar:

* **Spring** starts after the first week of January (day-of-year 8) and
  runs to early May (day 120); lecture importance persists until the end
  of the semester and wanes over the next **two years** (730 days).
* **Summer** runs days 150–210 (two months); importance wanes over
  **one year** (365 days).
* **Fall** starts in the second week of September (day 248) and runs to
  the end of the year (day 360); importance wanes until the end of the
  spring semester two years later (850 days).

Table 1 expresses the persistence as ``t_persist = term_end − today``: an
object captured later in the term persists for less wall-clock time, but
every object from the term stops persisting at the same calendar instant —
the end of the semester.

Student-created interpretations keep 50 % importance until the end of the
semester and wane over the following **two weeks**.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.importance import TwoStepImportance
from repro.errors import SimulationError
from repro.units import MINUTES_PER_DAY, days

__all__ = [
    "Term",
    "TermSpec",
    "AcademicCalendar",
    "PAPER_CALENDAR",
    "university_lifetime_for_day",
    "student_lifetime_for_day",
    "STUDENT_WANE_DAYS",
    "STUDENT_IMPORTANCE",
]

#: Days in the modelled (non-leap) academic year.
DAYS_PER_YEAR = 365

#: Student streams wane for two weeks past the end of the term.
STUDENT_WANE_DAYS = 14.0

#: Student streams are pegged at half the university cameras' importance.
STUDENT_IMPORTANCE = 0.5


class Term(enum.Enum):
    """Academic terms in the paper's calendar."""

    SPRING = "spring"
    SUMMER = "summer"
    FALL = "fall"


@dataclass(frozen=True)
class TermSpec:
    """One term's boundaries (days of year) and its wane duration."""

    term: Term
    begin_doy: int
    end_doy: int
    wane_days: float

    def __post_init__(self) -> None:
        if not 0 <= self.begin_doy < self.end_doy <= DAYS_PER_YEAR:
            raise SimulationError(
                f"term boundaries must satisfy 0 <= begin < end <= {DAYS_PER_YEAR}, "
                f"got [{self.begin_doy}, {self.end_doy})"
            )
        if self.wane_days < 0:
            raise SimulationError(f"wane must be >= 0 days, got {self.wane_days}")

    def contains(self, doy: int) -> bool:
        """True while classes for this term are in session on ``doy``."""
        return self.begin_doy <= doy < self.end_doy

    def persist_days_from(self, doy: int) -> float:
        """Table 1's ``t_persist = term_end − today`` (in days)."""
        if not self.contains(doy):
            raise SimulationError(f"day {doy} is outside term {self.term.value}")
        return float(self.end_doy - doy)


class AcademicCalendar:
    """A repeating 365-day calendar of term specs.

    The calendar answers "which term (if any) is in session on simulation
    day N" for arbitrary multi-year horizons, and generates class days for
    the lecture workloads.
    """

    def __init__(self, specs: tuple[TermSpec, ...]):
        if not specs:
            raise SimulationError("calendar needs at least one term")
        ordered = sorted(specs, key=lambda s: s.begin_doy)
        for left, right in zip(ordered, ordered[1:]):
            if left.end_doy > right.begin_doy:
                raise SimulationError(
                    f"terms {left.term.value} and {right.term.value} overlap"
                )
        self.specs = tuple(ordered)

    @staticmethod
    def day_of_year(t_minutes: float) -> int:
        """Day of the (365-day) year for an absolute simulation time."""
        return int(t_minutes // MINUTES_PER_DAY) % DAYS_PER_YEAR

    def term_for_day(self, doy: int) -> TermSpec | None:
        """The term in session on day-of-year ``doy``, or None on breaks."""
        for spec in self.specs:
            if spec.contains(doy):
                return spec
        return None

    def in_session(self, doy: int) -> bool:
        """True when any term has classes on day-of-year ``doy``."""
        return self.term_for_day(doy) is not None

    def class_days(
        self, horizon_minutes: float, *, weekday_pattern: tuple[int, ...] = (0, 2, 4)
    ) -> list[int]:
        """Absolute simulation days with lectures, up to the horizon.

        ``weekday_pattern`` selects lecture weekdays as offsets within a
        7-day week (default Monday/Wednesday/Friday with day 0 a Monday).
        """
        horizon_days = int(horizon_minutes // MINUTES_PER_DAY)
        out = []
        for day in range(horizon_days + 1):
            if day % 7 in weekday_pattern and self.in_session(day % DAYS_PER_YEAR):
                out.append(day)
        return out


#: Table 1's calendar: Spring [8, 120) wane 730 d, Summer [150, 210) wane
#: 365 d, Fall [248, 360) wane 850 d.
PAPER_CALENDAR = AcademicCalendar(
    (
        TermSpec(Term.SPRING, begin_doy=8, end_doy=120, wane_days=730.0),
        TermSpec(Term.SUMMER, begin_doy=150, end_doy=210, wane_days=365.0),
        TermSpec(Term.FALL, begin_doy=248, end_doy=360, wane_days=850.0),
    )
)


def university_lifetime_for_day(
    t_minutes: float, calendar: AcademicCalendar = PAPER_CALENDAR
) -> TwoStepImportance:
    """Table 1 lifetime for a university-camera lecture captured at ``t``.

    Importance 1.0 until the end of the current term, then a linear wane
    over the term's configured duration.  Raises
    :class:`~repro.errors.SimulationError` when ``t`` falls outside any
    term (no lectures are captured on breaks).
    """
    doy = calendar.day_of_year(t_minutes)
    spec = calendar.term_for_day(doy)
    if spec is None:
        raise SimulationError(f"day-of-year {doy} is not within any term")
    return TwoStepImportance(
        p=1.0,
        t_persist=days(spec.persist_days_from(doy)),
        t_wane=days(spec.wane_days),
    )


def student_lifetime_for_day(
    t_minutes: float, calendar: AcademicCalendar = PAPER_CALENDAR
) -> TwoStepImportance:
    """Lifetime for a student-created stream captured at ``t``.

    50 % importance until the end of the semester, waning over the
    following two weeks.
    """
    doy = calendar.day_of_year(t_minutes)
    spec = calendar.term_for_day(doy)
    if spec is None:
        raise SimulationError(f"day-of-year {doy} is not within any term")
    return TwoStepImportance(
        p=STUDENT_IMPORTANCE,
        t_persist=days(spec.persist_days_from(doy)),
        t_wane=days(STUDENT_WANE_DAYS),
    )
