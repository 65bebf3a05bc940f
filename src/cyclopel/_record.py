"""The frozen record base of cyclopel's data and result classes, in place
of the standard library's record decorator, which costs a fresh process
about 8 ms of imports and each class about 1 ms to define."""

from operator import attrgetter


class Record:
    """A record's fields are its __slots__, in order.  Record(*values) sets
    them, then calls self.__post_init__(), looked up at each call, which
    validates them.  Equality, hash and repr read every field; records of
    two classes are unequal."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls.__slots__)
        cls._key = attrgetter(*cls.__slots__)

    def __init__(self, *values):
        setters = self._setters
        if len(values) != len(setters):
            raise TypeError(f"{type(self).__name__} takes {len(setters)} values, not {len(values)}")
        for setter, value in zip(setters, values):
            setter(self, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is frozen")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # the default slot restore would call the refusing __setattr__
        return type(self), tuple(map(self.__getattribute__, self.__slots__))
