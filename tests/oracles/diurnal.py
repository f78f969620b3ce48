"""The keep fraction a diurnal profile should thin a steady stream to.

:class:`~repro.sim.workload.diurnal.DiurnalModulation` keeps each arrival
with its hour's keep probability; over whole weeks of hourly arrivals the
kept fraction must approach the mean of that probability over the 168 hours
of a week, which is what the empirical test compares against.
"""

from __future__ import annotations

from repro.sim.workload.diurnal import DiurnalProfile
from repro.units import MINUTES_PER_DAY, MINUTES_PER_HOUR


def expected_thinning(profile: DiurnalProfile) -> float:
    """Mean keep probability over the hours of one week."""
    week = [
        day * MINUTES_PER_DAY + hour * MINUTES_PER_HOUR for day in range(7) for hour in range(24)
    ]
    return sum(profile.keep_probability(t) for t in week) / len(week)
