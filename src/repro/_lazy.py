"""Lazy facade exports: a facade lists ``_LAZY = {name: defining module}``
and sets ``__getattr__ = lazy_getattr(globals(), _LAZY)``, so a process
imports only the modules whose names it reads.  A resolved value is cached
in the facade's globals, so each name costs the hook once."""

from __future__ import annotations

import importlib
from typing import Any, Callable


def lazy_getattr(namespace: dict[str, Any], lazy: dict[str, str]) -> Callable[[str], Any]:
    """The module ``__getattr__`` of a facade whose globals are ``namespace``."""

    def __getattr__(name: str) -> Any:
        module_name = lazy.get(name)
        if module_name is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(module_name), name)
        return value

    return __getattr__
