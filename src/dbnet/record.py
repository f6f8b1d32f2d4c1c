"""Records: classes whose instances are the tuple of their fields.

A :class:`Record` subclass declares its fields as annotations, after its
parent's.  A class attribute is a default; ``factory(make)`` is one built
by ``make()`` per record.  Records are frozen (they refuse assignment and
cache their hash) unless declared ``frozen=False`` (then unhashable), and
equal within one class by their fields.  A subclass keeps its parent's
flag.  Declaring a record compiles no code.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Record", "factory", "replace"]

_MISSING = object()


class factory:
    """A field default that ``make()`` builds anew for each record."""

    def __init__(self, make):
        self.make = make


def _refuse(self, name, *_):
    raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")


def _cached_hash(self):
    try:
        return self._hash
    except AttributeError:  # first call: the hash of the field tuple
        object.__setattr__(self, "_hash", hash(self._values(self)))
        return self._hash


class Record:
    """Base of the record classes; see the module docstring."""

    _fields, _frozen = (), True

    def __init_subclass__(cls, frozen=None, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._fields = fields = cls._fields + tuple(n for n in own if n not in cls._fields)
        cls._frozen = cls._frozen if frozen is None else frozen
        cls._defaults = {n: getattr(cls, n) for n in fields if hasattr(cls, n)}
        get = attrgetter(*fields) if fields else (lambda _: ())
        cls._values = staticmethod(get if len(fields) != 1 else lambda r: (get(r),))
        cls.__hash__ = _cached_hash if cls._frozen else None
        if cls._frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse

    def __init__(self, *args, **kwargs):
        fields, defaults, values = self._fields, self._defaults, self.__dict__
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)} arguments, got {len(args)}")
        values.update(zip(fields, args))
        for field in fields[len(args):]:
            value = kwargs.pop(field, defaults.get(field, _MISSING))
            if value is _MISSING:
                raise TypeError(f"{type(self).__name__}() missing required argument: {field!r}")
            values[field] = value.make() if type(value) is factory else value
        if kwargs:
            extra = next(iter(kwargs))
            problem = "multiple values for" if extra in fields else "an unexpected keyword"
            raise TypeError(f"{type(self).__name__}() got {problem} argument {extra!r}")
        self.__post_init__()

    def __post_init__(self):
        """Validate or normalise the fields, with ``object.__setattr__``."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented  # the other operand may know better; else identity
        return self is other or self._values(self) == self._values(other)

    def __repr__(self):
        pairs = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({pairs})"

    def __reduce__(self):
        # copies and pickles rebuild through __init__: no cache carries over
        return (type(self), self._values(self))


def replace(record: Record, **changes) -> Record:
    """A copy of ``record`` with ``changes``; its ``__post_init__`` runs again."""
    return type(record)(**{**dict(zip(record._fields, record._values(record))), **changes})
