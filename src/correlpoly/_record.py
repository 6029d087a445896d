"""The immutable value records of the exact layers.

A subclass declares its fields as class annotations, in order, as a frozen
dataclass does.  Records are filled positionally, by field name or both,
every field given once; they compare equal only to records of the same
class with equal fields, hash as the tuple of their fields and reject
assignment and deletion.  `__post_init__`, when a subclass defines it, runs
after the fields are set.  Importing `dataclasses` (and `inspect` with it)
costs every start of the command line; this class does not.
"""

from __future__ import annotations


class Record:
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the class's own annotations; since Python 3.10 a class without
        # any gets an empty dict, not its base's
        cls._fields = cls.__match_args__ = tuple(cls.__annotations__)

    def __init__(self, *values, **named):
        fields = self._fields
        if not (len(values) <= len(fields) and named.keys() == set(fields[len(values):])):
            raise TypeError(f"{type(self).__qualname__} takes the fields {fields}, got "
                            f"{len(values)} by position and {tuple(named)} by name")
        self.__dict__.update(zip(fields, values), **named)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _astuple(self):
        d = self.__dict__
        return tuple(d[f] for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        d = self.__dict__
        body = ", ".join(f"{f}={d[f]!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
