"""The read-only record base shared by the package's value types."""


class Record:
    """A read-only record with slotted fields.

    A subclass lists its fields in ``__slots__`` and sets each one once in
    its ``__init__`` through ``_set``; assigning or deleting a field
    afterwards raises AttributeError.  The repr shows every field's value in
    slot order.
    """

    __slots__ = ()

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
