"""The common base of the engine's immutable value classes."""

from __future__ import annotations


class Frozen:
    """A value whose fields, named in ``_fields``, are set once, by
    ``__init__`` or a trusted ``_make`` through ``object.__setattr__``;
    assigning to or deleting an attribute later raises AttributeError.
    Instances of one class are equal when their field tuples are, and hash
    as that tuple.  Fields live in the instance dict, so pickle and copy
    work unchanged."""

    _fields: tuple[str, ...] = ()

    def _set(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
