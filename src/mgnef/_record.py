"""Base of mgnef's immutable value records.

A record lists its fields in the class attribute ``_fields`` and writes its
own ``__init__``, which stores them with ``object.__setattr__``.  The base
gives every record equality and hashing by field values (or by the names
in a ``key`` class keyword) within its own class, a ``repr`` like
``GenusContext(g=5)``, and an ``AttributeError`` on any assignment or
deletion.  Instances keep a ``__dict__``, so pickle, ``copy`` and
``functools.cached_property`` work unchanged.
"""

from operator import attrgetter


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, key=None, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = attrgetter(*(key or cls._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable record")
