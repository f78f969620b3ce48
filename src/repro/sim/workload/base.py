"""Workload protocol.

A workload is anything with an ``arrivals(horizon_minutes)`` method that
yields :class:`~repro.core.obj.StoredObject` instances in non-decreasing
``t_arrival`` order.  Workloads own their randomness: each takes a seed and
builds a private :class:`random.Random`, so two runs with the same seed
produce byte-identical streams regardless of global RNG state.
"""

from __future__ import annotations

from typing import Iterator, Protocol, runtime_checkable

from repro.core.obj import StoredObject

__all__ = ["Workload"]


@runtime_checkable
class Workload(Protocol):
    """Structural type for arrival generators."""

    def arrivals(self, horizon_minutes: float) -> Iterator[StoredObject]:
        """Yield objects in non-decreasing ``t_arrival`` order."""
        ...
