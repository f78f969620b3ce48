"""User-level temporal filesystem prototype (paper Section 6).

"A user level file system prototype of the system will be available at
the author's web page."  This package is that prototype: a path-based
facade over a temporal-importance :class:`~repro.core.store.StorageUnit`.
Files carry importance annotations instead of being persistent-until-
deleted; under pressure the least important files *fade* — a subsequent
open raises :class:`~repro.fs.filesystem.FileFadedError` instead of
returning stale bytes.

* :mod:`repro.fs.path` — path normalisation and validation;
* :mod:`repro.fs.policy` — default annotations by path pattern (the
  paper's "/tmp and JPEG objects can be designated as less important"
  example, made explicit and overridable);
* :mod:`repro.fs.filesystem` — the :class:`TemporalFS` API: write / read
  / stat / listdir / remove / set_lifetime / density.
"""

from repro.fs.filesystem import FileFadedError, FileStat, TemporalFS
from repro.fs.policy import DefaultAnnotationPolicy, PatternRule
from repro.fs.path import normalize_path

__all__ = [
    "DefaultAnnotationPolicy",
    "FileFadedError",
    "FileStat",
    "PatternRule",
    "TemporalFS",
    "normalize_path",
]
