"""Explicit units for bytes and simulated time.

The simulator follows the paper's setup (Section 4.3): time advances at
*minute* granularity over multi-year horizons.  To keep call sites readable
and prevent unit bugs, every quantity in the public API is expressed through
the helpers in this module:

* **Time** is whole *minutes* since the simulation epoch, as an integer or
  an integer-valued float in ``[0, 2**51]`` (:func:`on_exact_grid`); an
  annotation duration may also be ``inf``, never.  Durations are checked
  when an annotation is built, a storage unit's clock on every move, and
  an engine tick's cadence when it is registered; so every sum and
  difference of up to three times is an integer below 2**53, computed
  without rounding.  Use :func:`minutes`, :func:`hours`,
  :func:`days`, :func:`months` and :func:`years` to construct durations,
  and :func:`to_days` / :func:`to_hours` to render them for reports.
* **Sizes** are integer *bytes*.  Use :func:`kib`, :func:`mib`, :func:`gib`,
  :func:`tib` (binary multiples, matching how disk-resident object sizes
  are accounted) and :func:`to_gib` for display.

The paper quotes disk sizes like "80 GB" in vendor units; we interpret them
as binary gibibytes throughout, which only rescales the absolute numbers
and not the comparative behaviour.
"""

from __future__ import annotations

#: Minutes in one hour.
MINUTES_PER_HOUR = 60
#: Minutes in one day.
MINUTES_PER_DAY = 24 * MINUTES_PER_HOUR
#: Minutes in one (calendar-agnostic, 30-day) month — used only for
#: coarse workload ramps, never for the academic calendar.
MINUTES_PER_MONTH = 30 * MINUTES_PER_DAY
#: Minutes in one (365-day) year.
MINUTES_PER_YEAR = 365 * MINUTES_PER_DAY

#: Bytes in one kibibyte.
KIB = 1024
#: Bytes in one mebibyte.
MIB = 1024 * KIB
#: Bytes in one gibibyte.
GIB = 1024 * MIB
#: Bytes in one tebibyte.
TIB = 1024 * GIB


def on_exact_grid(value: float) -> bool:
    """True when ``value`` is a whole minute in ``[0, 2**51]`` (an int or an
    integer-valued float); False for NaN and infinities."""
    return 0.0 <= value <= 2.0**51 and value == int(value)


def minutes(n: float) -> float:
    """Return ``n`` minutes as a duration in minutes (identity, for symmetry)."""
    return float(n)


def hours(n: float) -> float:
    """Return ``n`` hours as a duration in minutes."""
    return float(n) * MINUTES_PER_HOUR


def days(n: float) -> float:
    """Return ``n`` days as a duration in minutes."""
    return float(n) * MINUTES_PER_DAY


def months(n: float) -> float:
    """Return ``n`` 30-day months as a duration in minutes."""
    return float(n) * MINUTES_PER_MONTH


def years(n: float) -> float:
    """Return ``n`` 365-day years as a duration in minutes."""
    return float(n) * MINUTES_PER_YEAR


def to_minutes(duration_minutes: float) -> float:
    """Identity rendering helper, mirrors :func:`to_days` / :func:`to_hours`."""
    return float(duration_minutes)


def to_hours(duration_minutes: float) -> float:
    """Convert a duration in minutes to hours."""
    return float(duration_minutes) / MINUTES_PER_HOUR


def to_days(duration_minutes: float) -> float:
    """Convert a duration in minutes to days."""
    return float(duration_minutes) / MINUTES_PER_DAY


def to_years(duration_minutes: float) -> float:
    """Convert a duration in minutes to 365-day years."""
    return float(duration_minutes) / MINUTES_PER_YEAR


def kib(n: float) -> int:
    """Return ``n`` kibibytes as an integer byte count."""
    return int(n * KIB)


def mib(n: float) -> int:
    """Return ``n`` mebibytes as an integer byte count."""
    return int(n * MIB)


def gib(n: float) -> int:
    """Return ``n`` gibibytes as an integer byte count."""
    return int(n * GIB)


def tib(n: float) -> int:
    """Return ``n`` tebibytes as an integer byte count."""
    return int(n * TIB)


def to_kib(size_bytes: int) -> float:
    """Convert a byte count to kibibytes."""
    return size_bytes / KIB


def to_mib(size_bytes: int) -> float:
    """Convert a byte count to mebibytes."""
    return size_bytes / MIB


def to_gib(size_bytes: int) -> float:
    """Convert a byte count to gibibytes."""
    return size_bytes / GIB


def to_tib(size_bytes: int) -> float:
    """Convert a byte count to tebibytes."""
    return size_bytes / TIB

