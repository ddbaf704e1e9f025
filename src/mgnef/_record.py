"""Base of mgnef's immutable value records.

A record lists its fields in the class attribute ``_fields``.  The base
constructor takes them by position or keyword, reads a field left out from
the class attribute of its name (``detail = ""``), and stores them past the
immutability guard; a record that converts or checks its arguments writes
its own ``__init__`` and stores its fields itself.  The base gives every
record equality and hashing by field values (or by the names in a ``key``
class keyword) within its own class, a ``repr`` like ``GenusContext(g=5)``,
and an ``AttributeError`` on any assignment or deletion.  Instances keep a
``__dict__``, so pickle, ``copy`` and ``functools.cached_property`` work
unchanged.
"""

from operator import attrgetter


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, key=None, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = attrgetter(*(key or cls._fields))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            cls, name = self.__class__, self.__class__.__qualname__
            if len(args) > len(fields):
                raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
            given = dict(zip(fields, args))
            for field, value in kwargs.items():
                if field not in fields:
                    raise TypeError(f"{name}() got an unexpected keyword argument {field!r}")
                if field in given:
                    raise TypeError(f"{name}() got multiple values for argument {field!r}")
                given[field] = value
            missing = [f for f in fields if f not in given and not hasattr(cls, f)]
            if missing:
                raise TypeError(f"{name}() missing arguments: {', '.join(map(repr, missing))}")
            args = [given[f] if f in given else getattr(cls, f) for f in fields]
        stored = self.__dict__
        for field, value in zip(fields, args):
            stored[field] = value

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
