"""Section 6 extension scenarios.

The paper's discussion sketches follow-on uses of temporal importance
that need *active intervention* to raise an importance (the static
functions are monotone by design, so any increase must be an explicit
re-annotation):

* :mod:`repro.ext.sensor` — sensor stores that treat unprocessed data as
  important, retain processed data until results are acknowledged, and
  downgrade on acknowledgment.

It builds on :mod:`repro.ext.reannotate`, the generic re-annotation
primitive.
"""

from repro.ext.reannotate import reannotate
from repro.ext.refresher import PalimpsestRefresher, RefreshOutcome
from repro.ext.sensor import SensorPipeline, SensorReading, SensorStage

__all__ = [
    "PalimpsestRefresher",
    "RefreshOutcome",
    "SensorPipeline",
    "SensorReading",
    "SensorStage",
    "reannotate",
]
