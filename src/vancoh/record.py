"""The base of the record types whose constructor checks its values."""


class CheckedRecord:
    """Mixin, listed before the namedtuple base, for a record that checks its
    values in `__new__`: `_make` and `_replace` build through the class, and
    a tuple's `+` and `*` raise TypeError unless the record defines its own."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))
    __add__ = __mul__ = __rmul__ = lambda self, other: NotImplemented
