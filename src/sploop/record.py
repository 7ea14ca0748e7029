"""The base of the package's frozen records, without ``dataclasses``.

``dataclasses`` imports ``inspect``, which takes about 12 ms of the CLI's
numpy-free start, so every record of the package derives from ``Record``
instead, and new records should too. A record's fields are its class's
``__slots__``, set once by its ``__init__``; like a frozen dataclass it
compares equal to a record of the same class with equal fields, hashes and
prints by its fields, and refuses assignment with an ``AttributeError``.
So ``__init__`` sets each field with ``object.__setattr__``, as a frozen
dataclass does.
"""


class Record:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self.__slots__)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()
