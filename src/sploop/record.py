"""The base of the package's frozen records, without ``dataclasses``.

``dataclasses`` imports ``inspect``, which takes about 12 ms of the CLI's
numpy-free start, so every record of the package derives from ``Record``
instead, and new records should too. A record's fields are its class's
``__slots__``, named there once; like a frozen dataclass it compares equal
only to a record of the same class with equal fields (never to a plain
tuple), hashes and prints by its fields, and refuses assignment with an
``AttributeError``.

A record is a tuple of its fields, as a ``collections.namedtuple`` is: the
metaclass takes each class's ``__slots__`` as its field names, sets
``__slots__ = ()`` (a tuple subtype holds no slots of its own), reads each
field through the accessor ``namedtuple`` uses, and compiles the class's
``__new__``, which takes the fields in order, by position or by name. So
a record also has ``len``, indexing, unpacking and tuple ordering, and
``json.dumps`` writes it as a list. A class keyword gives trailing fields
their defaults::

    class SpAp(Record, defaults={"chain_value": None}): ...

A record may subclass another: its fields are the base's, then its own
``__slots__``, and it inherits the base's defaults. As in ``dataclasses``,
a field without a default may not follow one with a default.
"""

from _collections import _tuplegetter


class _RecordType(type):
    def __new__(mcls, name, bases, ns, defaults=None):
        own = tuple(ns.get("__slots__", ()))
        fields = getattr(bases[0], "_field_names", ()) + own  # the base's first
        defaults = {**getattr(bases[0], "_defaults", {}), **(defaults or {})}
        for field, later in zip(fields, fields[1:]):
            if field in defaults and later not in defaults:
                raise TypeError(f"{ns['__qualname__']}: field {later!r} without "
                                f"a default follows {field!r}, which has one")
        params = "".join(f", {f}=_defaults[{f!r}]" if f in defaults else f", {f}"
                         for f in fields)
        scope = {"_new": tuple.__new__, "_defaults": defaults}
        exec(f"def __new__(_cls{params}):\n"
             f"    return _new(_cls, ({''.join(f'{f}, ' for f in fields)}))", scope)
        scope["__new__"].__qualname__ = f"{ns['__qualname__']}.__new__"
        ns.update({f: _tuplegetter(i, None) for i, f in enumerate(fields) if f in own},
                  __slots__=(), __new__=scope["__new__"], _field_names=fields,
                  _defaults=defaults)
        return super().__new__(mcls, name, bases, ns)


class Record(tuple, metaclass=_RecordType):
    __slots__ = ()

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return other.__class__ is not self.__class__ or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}"
                          for name, value in zip(self._field_names, self))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(self)
