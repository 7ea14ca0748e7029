"""The base of the package's frozen records, without ``dataclasses``.

``dataclasses`` imports ``inspect``, which takes about 12 ms of the CLI's
numpy-free start, so every record of the package derives from ``Record``
instead, and new records should too. A record's fields are its class's
``__slots__``, named there once; like a frozen dataclass it compares equal
to a record of the same class with equal fields, hashes and prints by its
fields, and refuses assignment with an ``AttributeError``.

Each subclass gets its ``__init__`` when it is defined, compiled from its
``__slots__`` as ``dataclasses`` compiles one: it takes the fields in slot
order, by position or by name, and sets each through its slot's member
descriptor, which skips the refusing ``__setattr__``. A class keyword
gives trailing fields their defaults::

    class SpAp(Record, defaults={"chain_value": None}): ...

A record may subclass another: its fields are the base's, then its own
``__slots__``, and it inherits the base's defaults. As in ``dataclasses``,
a field without a default may not follow one with a default.
"""


class Record:
    __slots__ = ()

    _field_names = ()
    _defaults = {}

    def __init_subclass__(cls, defaults=None):
        own = tuple(cls.__dict__.get("__slots__", ()))
        fields = cls._field_names + own  # the base record's, inherited
        defaults = {**cls._defaults, **(defaults or {})}
        for name, later in zip(fields, fields[1:]):
            if name in defaults and later not in defaults:
                raise TypeError(f"{cls.__qualname__}: field {later!r} without "
                                f"a default follows {name!r}, which has one")
        cls._field_names, cls._defaults = fields, defaults
        scope = {f"_set_{name}": getattr(cls, name).__set__ for name in fields}
        scope["_defaults"] = defaults
        params = "".join(
            f", {name}=_defaults[{name!r}]" if name in defaults else f", {name}"
            for name in fields)
        body = "".join(f"\n    _set_{name}(self, {name})"
                       for name in fields) or "\n    pass"
        exec(f"def __init__(self{params}):{body}", scope)
        init = scope["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._field_names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._field_names)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()
