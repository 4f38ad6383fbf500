"""Plain field records for the package's result and data classes.

``dataclasses`` is not imported: it pulls in ``inspect`` (with ``ast``,
``dis`` and ``tokenize``), several milliseconds of every command's start-up.
A subclass declares its fields as class annotations, in order.  ``Record``
builds them by position or keyword, compares two records of one class field
by field, and shows the fields in its repr, as a dataclass would.
"""

from __future__ import annotations


class Record:
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields) or sorted(kwargs) != sorted(fields[len(args):]):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
        self.__dict__.update(zip(fields, args), **kwargs)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({shown})"
