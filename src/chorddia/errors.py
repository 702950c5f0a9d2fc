"""Exception types and the base of the value types, shared across the
package."""


class DomainError(ValueError):
    """Raised when an argument is outside an operation's domain."""


class ResourceLimitError(RuntimeError):
    """Raised when a computation would exceed a configured resource cap."""


class ConsistencyError(RuntimeError):
    """Raised when an internal exactness check fails.

    Every division in the counting formulas is mathematically exact; a
    nonzero remainder therefore signals an implementation bug, never bad
    input.
    """


def exact_div(numerator: int, denominator: int, context: str) -> int:
    """Divide, insisting on a zero remainder."""
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ConsistencyError(
            f"inexact division in {context}: {numerator} / {denominator} "
            f"leaves remainder {remainder}"
        )
    return quotient


class Record:
    """Base of the package's immutable value types.

    A subclass names its fields, in order, in ``__slots__`` and stores them
    in its own ``__init__`` with ``object.__setattr__``. An instance equals
    only an instance of the same class with equal fields, hashes as the
    tuple of its fields, prints as ``Name(field=value, ...)``, refuses
    assignment and deletion, and pickles by calling the class with its
    fields (so unpickling validates again).
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._values())
        )
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()
