"""Immutable value records: the package's one owner of field equality.

A record lists its fields, in order, in ``__slots__`` and the defaults of
its trailing fields in ``_defaults``.  Two records are equal only when
they have the same type and equal fields, so ``AnnulusPower(3)`` and
``AioArc(3)`` stay distinct keys of one mapping; the hash is the hash of
the field tuple.  Defining a record class runs no code generation at
import, and a positional call skips argument binding.
"""

from __future__ import annotations


class Record:
    """Base of the package's immutable values.

    Subclasses set ``__slots__`` to their field names and may override
    ``_check``, which runs at the end of ``__init__`` to validate fields.
    Setting or deleting an attribute raises AttributeError.  The field
    tuple is also kept whole in ``_key``, so equality, hashing and
    pickling are one tuple operation each, with no per-field reads.
    """

    __slots__ = ("_key",)
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))
        cls._fields = fields
        # Slot descriptors store a value without going through __setattr__.
        cls._setters = tuple(getattr(cls, name).__set__ for name in fields)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for setter, value in zip(self._setters, args):
            setter(self, value)
        _set_key(self, args)
        self._check()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """Field values from positional, keyword and default arguments."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__} takes {len(fields)} fields, got {len(args)}")
        values = list(args)
        for name in fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__} is missing field {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__} got unexpected or repeated fields {sorted(kwargs)}")
        return tuple(values)

    def _check(self) -> None:
        """Validate the fields; the base accepts any values."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._key))
        return f"{type(self).__qualname__}({inner})"

    def __reduce__(self):
        return type(self), self._key


_set_key = Record._key.__set__
