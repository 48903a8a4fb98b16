"""The one base of the package's immutable value records, in place of
``@dataclass(frozen=True)``: ``dataclasses`` pulls in ``inspect`` and its chain,
and each decorated class runs a generated body, together about 15 of the 65 ms of
process time that ``import tnomial.cli`` took without bytecode (CPython 3.11, x86-64)."""


class Record:
    """A subclass names its fields in ``__slots__`` and sets each once, in
    its ``__init__``, through ``_set``.  Records compare and hash by their
    fields, refuse assignment and deletion, and pickle and copy through
    their constructor."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self.__slots__)})"

    def __reduce__(self):  # the default would restore the slots by __setattr__
        return type(self), self._fields()
