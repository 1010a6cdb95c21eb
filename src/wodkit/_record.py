"""Immutable slotted records: the base of wodkit's value classes.

A record class lists its fields in __slots__, in constructor order, and
its __init__ validates the arguments and stores each field once with
_set.  Record derives equality, hashing, repr and pickling from those
fields, as a frozen dataclass would: == holds only between instances of
the same class with equal field tuples, hash is the hash of that tuple,
repr reads Name(field=value, ...), and assigning or deleting an
attribute raises AttributeError.  Pickling and copy.deepcopy rebuild a
record through its constructor, so the checks run again.

This module imports only operator, which the interpreter has loaded
before any user code, so the value classes cost no import of dataclasses
and its dependencies at start-up.
"""
from __future__ import annotations

from operator import attrgetter

# stores a field past Record.__setattr__; only a record's __init__ calls it
_set = object.__setattr__


class Record:
    """Base of the immutable records; subclasses define __slots__ and __init__."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = cls._fields = cls.__match_args__ = tuple(cls.__slots__)
        # _values(): the field values in __slots__ order.  An attrgetter is
        # no descriptor, so a method wraps it; over one field it returns the
        # bare value, not a 1-tuple
        get = attrgetter(*fields)
        if len(fields) == 1:
            cls._values = lambda self: (get(self),)
        else:
            cls._values = lambda self: get(self)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields
        )
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()
