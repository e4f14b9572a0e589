"""Immutable value objects written by hand.  Frozen fields are __slots__,
set once by _assign in a validating constructor (a hot trusted constructor
may call object.__setattr__ itself); assigning or deleting a field later
is an AttributeError, and unpickling sets them by __setstate__.  Record
adds equality, hash, repr and pickling that read the fields in order.
_json_int and _json_number check the typed fields of their JSON forms.
(dataclasses would cost every process inspect, ast and an exec per class.)"""


class Frozen:
    __slots__ = ()

    def _assign(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __getstate__(self):  # pickle protocols 0 and 1 have no default for __slots__
        return None, {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state):
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class Record(Frozen):
    __slots__ = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__,
                           ", ".join("%s=%r" % (name, getattr(self, name)) for name in self.__slots__))

    def __reduce__(self):
        return type(self), self._values()


def _json_int(value, name):
    """value, which must be a JSON integer: a number such as 2.9 or a
    boolean is refused, not truncated."""
    if type(value) is not int:
        raise ValueError("%s must be an integer, got %r" % (name, value))
    return value


def _json_number(value, name):
    """value, a JSON number, as a float: a boolean or a string is refused,
    not converted."""
    if type(value) not in (int, float):
        raise ValueError("%s must be a number, got %r" % (name, value))
    return float(value)
