"""Find a finished run's artifacts: the rule the read-side subcommands share.

``alerts``, ``flamegraph`` and ``explain`` all take "one artifact file,
or the directory a run wrote them to".  A multi-spec run writes one file
per spec plus a ``-merged`` fold of all of them, so a reader must not
take both or it counts everything twice.
"""

from __future__ import annotations

import os
from typing import Any, Callable

from repro.errors import ReproError

__all__ = ["default_out", "is_merged", "run_files"]


def is_merged(path: str) -> bool:
    """Whether ``path`` is named as the ``-merged`` fold of a multi-spec run."""
    return os.path.splitext(os.path.basename(path))[0].endswith("-merged")


def run_files(
    path: str, ext: str, sniff: Callable[[str], Any], *, what: str, merged: str = "only"
) -> dict[str, Any]:
    """The files of one artifact kind under ``path``, sorted: ``{file: sniffed}``.

    ``path`` is one file, or a directory whose ``*ext`` entries are the
    candidates; a candidate is of the kind when ``sniff(file)`` is truthy
    (the value is kept, so a sniff that had to load the file loads it
    once).  ``merged`` settles the double count: ``"only"`` keeps just the
    ``-merged`` folds when there are any, ``"skip"`` drops them when
    per-spec files exist.  Raises :class:`ReproError`
    when ``path`` does not exist or nothing is left (``what`` names the
    kind in the message).
    """
    if os.path.isfile(path):
        candidates = [path]
    elif os.path.isdir(path):
        candidates = sorted(
            os.path.join(path, name) for name in os.listdir(path) if name.endswith(ext)
        )
    else:
        raise ReproError(f"{path!r} is not a file or directory")
    files = {file: hit for file in candidates if (hit := sniff(file))}
    folds = [file for file in files if is_merged(file)]
    if merged == "skip" and len(folds) < len(files):
        for file in folds:
            del files[file]
    elif merged == "only" and folds:
        files = {file: files[file] for file in folds}
    if not files:
        raise ReproError(f"no {what} found under {path!r}")
    return files


def default_out(path: str, name: str) -> str:
    """The default ``--out``, next to the input: ``<file><name's ext>`` or ``<dir>/<name>``."""
    if os.path.isfile(path):
        return os.path.splitext(path)[0] + os.path.splitext(name)[1]
    return os.path.join(path, name)
