"""The immutable value records of the exact layers.

A subclass declares its fields as class annotations, in order, as a frozen
dataclass does, and a field with a class-level value may be left out of the
call.  Records are filled positionally or by field name, compare equal
only to records of the same class with equal fields, hash as the tuple of
their fields and reject assignment and deletion.  `__post_init__`, when a subclass defines
it, runs after the fields are set.  Importing `dataclasses` (and `inspect`
with it) costs every start of the command line; this class does not.
"""

from __future__ import annotations


class Record:
    _fields = ()
    _defaults = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the class's own annotations; since Python 3.10 a class without
        # any gets an empty dict, not its base's
        fields = tuple(cls.__annotations__)
        required = len(fields)
        while required and fields[required - 1] in vars(cls):
            required -= 1
        cls._fields = cls.__match_args__ = fields
        cls._defaults = tuple(vars(cls)[f] for f in fields[required:])

    def __init__(self, *values, **named):
        fields = self._fields
        if named:
            values = self._positional(values, named)
        missing = len(fields) - len(values)
        if missing < 0 or missing > len(self._defaults):
            raise TypeError(f"{type(self).__qualname__} takes {len(fields)} fields "
                            f"({len(self._defaults)} optional), got {len(values)}")
        if missing:
            values += self._defaults[-missing:]
        self.__dict__.update(zip(fields, values))
        self.__post_init__()

    def _positional(self, values, named):
        """values, then the named fields in field order up to the last one
        named, a field left out taking its default."""
        fields, defaults = self._fields, self._defaults
        later = fields[len(values):]
        for name in named:
            if name not in later:
                raise TypeError(f"{type(self).__qualname__} got an unknown or repeated "
                                f"field {name!r}")
        first_default = len(fields) - len(defaults)
        values = list(values)
        for i in range(len(values), max(map(fields.index, named)) + 1):
            if fields[i] in named:
                values.append(named[fields[i]])
            elif i >= first_default:
                values.append(defaults[i - first_default])
            else:
                raise TypeError(f"{type(self).__qualname__} is missing field {fields[i]!r}")
        return tuple(values)

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
