"""Frozen value types built per event: one ``__init__`` per class that
stores each field straight through its slot.

A frozen dataclass's generated ``__init__`` stores every field with
``object.__setattr__(self, name, value)``, one attribute lookup by name
per field.  :func:`slot_init`, applied on top of
``@dataclass(frozen=True, slots=True)``, swaps that ``__init__`` for one
that calls each slot's member descriptor (``cls.__dict__[name].__set__``)
directly.  Everything else the dataclass made stays: the signature and
its defaults (the old ``__init__``'s own), one fresh ``default_factory``
call per instance, ``__post_init__``, ``FrozenInstanceError`` on setattr
and delattr, eq, repr, ``dataclasses.replace`` and pickling.  A class it
does not handle (an ``InitVar`` or ``kw_only`` field, a field left out of
``__init__``, no slots) is refused when it is decorated.
"""

from __future__ import annotations

import dataclasses
from typing import TypeVar

__all__ = ["slot_init"]

T = TypeVar("T")


def slot_init(cls: type[T]) -> type[T]:
    """Give the slotted dataclass ``cls`` an ``__init__`` that sets each
    field through its slot descriptor; returns ``cls``."""
    if not dataclasses.is_dataclass(cls) or "__slots__" not in cls.__dict__:
        raise TypeError(f"{cls.__name__} is not a slotted dataclass")
    fields = dataclasses.fields(cls)
    old = cls.__init__
    code = old.__code__
    names = [f.name for f in fields]
    if code.co_kwonlyargcount or any(f.kw_only for f in fields):
        raise TypeError(f"{cls.__name__}: kw_only fields are not handled")
    if list(code.co_varnames[1 : code.co_argcount]) != names:
        raise TypeError(f"{cls.__name__}: InitVar and init=False fields are not handled")
    defaults = old.__defaults__ or ()
    default_of = dict(zip(names[len(names) - len(defaults) :], defaults))
    env: dict[str, object] = {}
    body = []
    for i, f in enumerate(fields):
        env[f"_set{i}"] = cls.__dict__[f.name].__set__
        if f.default_factory is not dataclasses.MISSING:
            env[f"_none{i}"], env[f"_make{i}"] = default_of[f.name], f.default_factory
            body.append(f"  if {f.name} is _none{i}: {f.name} = _make{i}()")
        body.append(f"  _set{i}(self, {f.name})")
    if hasattr(cls, "__post_init__"):
        body.append("  self.__post_init__()")
    source = f"def __init__(self, {', '.join(names)}):\n" + "\n".join(body or ["  pass"])
    exec(compile(source, f"<slot_init {cls.__qualname__}>", "exec"), env)
    init = env["__init__"]
    init.__defaults__ = old.__defaults__
    init.__annotations__ = dict(old.__annotations__)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    cls.__init__ = init
    return cls
