"""Immutable value records that declare their fields once, as annotations.

:class:`Record` supplies the constructor, equality and hashing from them in
plain source, with none of the ``exec`` a frozen dataclass runs on import.
"""

from __future__ import annotations

from operator import attrgetter

# How a record's own __init__ stores a field past the refusal to assign.
set_field = object.__setattr__


class Record:
    """Base of the package's immutable values.

    A subclass names its fields, in order, as class annotations; the base
    ``__init__`` stores them by position or by name.  Only a class that checks
    or normalises its values writes its own, storing through :data:`set_field`.
    Records of one class are equal when their fields are; a record hashes as
    the tuple of its fields, prints as ``Name(field=value, ...)`` and refuses
    assignment and deletion.  Its ``__dict__`` keeps ``cached_property`` working.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        fields = cls._fields = tuple(cls.__annotations__)
        if len(fields) > 1:  # the tuple of a record's fields
            cls._astuple = attrgetter(*fields)
        else:  # attrgetter cannot be built with no name and gives one name's bare value
            cls._astuple = staticmethod(lambda record: tuple([getattr(record, name) for name in fields]))

    def __init__(self, *values: object, **named: object) -> None:
        fields = self._fields
        if named:
            values += tuple(named.pop(name) for name in fields[len(values):] if name in named)
            for name in named:  # what is left was given by position too, or names no field
                problem = "a second value for" if name in fields else "an unknown"
                raise TypeError(f"{self.__class__.__qualname__}() got {problem} field {name!r}")
        if len(values) != len(fields):
            raise TypeError(f"{self.__class__.__qualname__}() takes the fields {fields}, got {len(values)} of them")
        index = 0  # a counter runs faster here than zip or enumerate
        for name in fields:
            set_field(self, name, values[index])
            index += 1

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple(self) == self._astuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
