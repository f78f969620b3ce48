"""Path handling for the temporal filesystem (paper §6).

Paths are absolute, ``/``-separated, case-sensitive strings.  The rules
are deliberately strict — the FS is a prototype and silently "fixing"
paths would hide caller bugs.
"""

from __future__ import annotations

import posixpath

from repro.errors import ReproError

__all__ = ["PathError", "normalize_path", "is_within"]


class PathError(ReproError):
    """A path is malformed for the temporal filesystem."""


def normalize_path(path: str) -> str:
    """Validate and canonicalise an absolute file path.

    Collapses duplicate separators and ``.`` segments; rejects relative
    paths, ``..`` traversal, trailing slashes (files, not directories) and
    empty segments after normalisation.
    """
    if not isinstance(path, str) or not path:
        raise PathError(f"path must be a non-empty string, got {path!r}")
    if not path.startswith("/"):
        raise PathError(f"paths must be absolute, got {path!r}")
    if "\x00" in path:
        raise PathError("paths must not contain NUL bytes")
    if ".." in path.split("/"):
        # Rejected pre-normalisation: traversal in the *input* is a caller
        # bug even when normpath would resolve it inside the tree.
        raise PathError(f"path traversal is not allowed: {path!r}")
    if path.endswith("/"):
        raise PathError(f"file paths must not end with '/': {path!r}")
    normalized = posixpath.normpath(path)
    if normalized == "/":
        raise PathError("the root directory is not a file path")
    return normalized


def is_within(path: str, directory: str) -> bool:
    """True when ``path`` lies under ``directory`` (both normalised)."""
    if directory == "/":
        return True
    prefix = directory.rstrip("/") + "/"
    return path.startswith(prefix)
