"""Immutable value records whose methods are plain source.

A frozen dataclass writes its methods as text and runs ``exec`` on each one
whenever its module is imported, work that bytecode caching cannot keep.
These methods are compiled once into the package's bytecode instead.
"""

from __future__ import annotations

# How a record's own __init__ stores a field past the refusal to assign.
set_field = object.__setattr__


class Record:
    """Base of the package's immutable values.

    A subclass names its fields, in order, as class annotations and stores
    each one in its own ``__init__`` through :data:`set_field`.  Two records
    are equal when they are of one class with equal fields; a record hashes
    as the tuple of its fields and prints as ``Name(field=value, ...)``.
    Assigning or deleting any attribute raises :class:`AttributeError`.  The
    instance ``__dict__`` stays, so a ``functools.cached_property`` works.
    A class compared or hashed in hot loops writes its own ``__eq__`` and
    ``__hash__`` with the fields spelled out, which run faster than these.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
