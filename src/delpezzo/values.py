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
"""

from __future__ import annotations

from operator import attrgetter


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
