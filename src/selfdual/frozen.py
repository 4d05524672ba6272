"""Immutable value classes without the dataclass machinery.

``import dataclasses`` pulls in ``inspect``, and every frozen dataclass
execs generated source for its methods; a fresh ``selfdual`` process pays
both before it does any work.  ``Frozen`` gives a class the same value
semantics from the tuple of its field names in ``_fields``: equality
between instances of the same class with equal fields, a hash over the
fields, the ``Name(field=value, ...)`` repr, and ``AttributeError`` on
assigning or deleting an attribute.  A subclass writes its own
``__init__`` and sets its fields there with ``_assign``.
"""
from __future__ import annotations


class Frozen:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _assign(self, *values) -> None:
        """Set the fields, in the order of ``_fields``, to ``values``."""
        self.__dict__.update(zip(self._fields, values))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)
