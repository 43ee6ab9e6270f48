"""Immutable records without generated code.

A record class lists its fields once, in `__match_args__` (and in
`__slots__` when it keeps no `__dict__`); the constructor, `repr`,
equality and hashing all read that tuple at run time, so defining a record
class compiles nothing.
"""

from __future__ import annotations

_set = object.__setattr__


def set_fields(record, args: tuple, kwargs: dict) -> tuple:
    """Set a record's fields from its constructor's arguments, positional
    or by keyword, and return their values in `__match_args__` order."""
    names = record.__match_args__
    if kwargs or len(args) != len(names):
        rest = names[len(args):]
        if len(args) > len(names) or kwargs.keys() != set(rest):
            raise TypeError(f"{type(record).__name__}() takes the fields {', '.join(names)}")
        args += tuple(kwargs[field] for field in rest)
    for field, value in zip(names, args):
        _set(record, field, value)
    return args


class Record:
    """Immutable record over the fields that `__match_args__` names.

    The constructor takes the fields positionally or by keyword, `repr`
    reads `Name(field=value, ...)`, and assigning or deleting an attribute
    raises AttributeError.  Equality and hashing are by identity.  A
    subclass without `__slots__` keeps a `__dict__`, which
    `functools.cached_property` writes to directly.
    """

    __slots__ = ()
    __match_args__: tuple = ()

    def __init__(self, *args, **kwargs):
        set_fields(self, args, kwargs)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


class ValueRecord(Record):
    """Record compared and hashed by its class and its field values: two
    records are equal when they have the same class and equal fields, and
    one hashes like the tuple of its fields."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())
