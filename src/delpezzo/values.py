"""The base of the package's frozen value types.

A value type declares its ``__slots__``, the tuple ``_fields`` of the
fields that take part in ``==``, the hash and the repr, and an
``__init__`` that does three things: normalise, check, then set each
slot once through the class's setters.  The module that defines a class
binds them once, at import, as ``_set_x, ... = slot_setters(Cls)``:
``_set_x(obj, value)`` is the slot descriptor's own ``__set__``, which
``Value.__setattr__`` cannot refuse, and it costs about half of
``object.__setattr__(obj, "x", value)``, because the slot is found once,
at import, not by its name on every call.  ``KClass`` and
``DivisorClass`` alone set their fields first and then check them in
``self.__post_init__()``, because the benchmark's tracer counts their
builds through that method.  A slot left out of ``_fields`` (a cache or
a certificate flag) takes part in none of them.  Equality holds between
instances of one class only, the hash is that of the tuple of field
values and the repr reads ``Name(field=value, ...)``: the values a frozen
standard-library data class computes, so set and dict orders and printed
forms are unchanged.  Assignment and deletion raise AttributeError.  The
types are written out by hand because a class decorator that generates
these methods costs a cold command-line call more than its whole
computation.

Every JSON object the package reads goes through ``JsonFormat.read``,
and every integer written as text (a flag, a braid position) through
``read_int``; each refuses with ``InvalidInputError``.
"""

from __future__ import annotations

import re
from operator import attrgetter, itemgetter

from .errors import InvalidInputError


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields)
        # attrgetter of one name returns the bare value; the key is a tuple.
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda x: (get(x),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._key(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def slot_setters(cls: type) -> tuple:
    """The ``__set__`` of each of cls's own ``__slots__``, in their order."""
    return tuple(vars(cls)[name].__set__ for name in cls.__slots__)


# Any JSON value: the reader's caller, a constructor or a parser checks it.
ANY = object
_TYPE_NAMES = {int: "integer", str: "string", list: "list", dict: "object"}


class JsonFormat:
    """A JSON object format: its name and its required and optional keys,
    each with its exact JSON type (a bool is no int).  An optional key is
    never ANY, so ``read`` gives None only for a key left out."""

    __slots__ = ("name", "_required", "_keys", "_names", "_typed", "_get")

    def __init__(self, name: str, required: dict, optional: dict | None = None):
        types = {**required, **(optional or {})}
        names = self._names = tuple(types)
        self.name, self._keys = name, frozenset(names)
        self._required = names[: len(required)]
        self._typed = tuple((i, t) for i, t in enumerate(types.values()) if t is not ANY)
        if len(names) > 1:
            self._get = itemgetter(*names)
        else:  # itemgetter of one name returns the bare value
            self._get = lambda data: tuple(map(data.__getitem__, names))

    def read(self, data) -> tuple:
        """data's values in declared order.  One lookup of every key and the
        length tell the usual object; a message is built only to refuse."""
        if type(data) is not dict:
            raise InvalidInputError(f"{self.name} must be a JSON object")
        try:
            values = self._get(data)
        except KeyError:
            values = None
        if values is None or len(data) != len(values):
            missing = [key for key in self._required if key not in data]
            unknown = [key for key in data if key not in self._keys]
            if missing:
                raise InvalidInputError(f"missing {self.name} key {missing[0]!r}")
            if unknown:
                raise InvalidInputError(f"unknown {self.name} key {unknown[0]!r}")
            values = tuple(map(data.get, self._names))
        for i, t in self._typed:  # a left-out optional key reads None
            if type(values[i]) is not t and self._names[i] in data:
                raise InvalidInputError(
                    f"{self.name} key {self._names[i]!r} must be a JSON "
                    f"{_TYPE_NAMES[t]}, got {values[i]!r}"
                )
        return values


_INT_TEXT = re.compile(r"-?(?:0|[1-9][0-9]*)")


def read_int(text: str) -> int:
    """The integer that text writes as JSON writes one, -?(0|[1-9][0-9]*)
    in ASCII digits, within the int-from-string digit limit."""
    if not _INT_TEXT.fullmatch(text):
        raise InvalidInputError(f"not a JSON integer: {text!r}")
    try:
        return int(text)
    except ValueError as exc:  # past the int-from-string digit limit
        raise InvalidInputError(f"integer of {len(text)} digits is too long") from exc
