"""Plain record classes, made without ``dataclasses``.

A record lists its fields in ``_fields``, in constructor order, and its own
``__init__`` sets them.  The repr reads ``Class(field=value, ...)``; a
class may write its own.  Equality compares the fields named in
``_compared`` (every field unless a class names fewer), and only between
records of one class.  A ``Record`` is mutable and unhashable.  A
``FrozenRecord`` hashes its compared fields and refuses assignment;
``functools.cached_property`` still caches in its instance dict.  An
``__init__`` validates its arguments and passes the fields to ``_fill``.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        names = cls._compared or cls._fields
        if names:
            # not a descriptor: ``self._key`` is the getter itself
            cls._key = attrgetter(*names)

    def _fill(self, *values: object) -> None:
        """Set the fields, in the order of ``_fields``."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
