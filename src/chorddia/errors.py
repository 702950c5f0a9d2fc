"""Exception types, the base of the value types and the integer checks of
arguments and parsed input, shared across the package."""


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


def _is_int(value) -> bool:
    """True for an int parsed from input, False for a bool (which Python
    counts as an int) and for any other type."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require_int(value, least: int, what: str) -> int:
    """Return value when it is an int, not a bool, and value >= least;
    otherwise raise DomainError(what), with the same message for a value
    out of range and one of another type. This is the one check of every
    order, bound, divisor and thread count that a function takes."""
    if not _is_int(value) or value < least:
        raise DomainError(what)
    return value


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

    A subclass names its fields, in order, in ``__slots__``; Record's one
    constructor binds them by position or by name, the way a function binds
    its parameters (a missing, unknown, repeated or surplus field is a
    TypeError), and then calls ``_check``, which a subclass overrides to
    validate its fields. An instance equals only an instance of the same
    class with equal fields, hashes as the tuple of its fields, prints as
    ``Name(field=value, ...)``, refuses assignment and deletion, and pickles
    by calling the class with its fields (so unpickling validates again).

    Each value is checked once, where it enters the program: input from
    outside (a public constructor, a factory, a parsed file, a pickle) goes
    through ``__init__``, and a value the package derives from values
    already checked (a group's closure, an inverse, a product, a walk's
    matching) through ``_unchecked``, which binds the same fields without
    calling ``_check``.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        cls = self.__class__.__qualname__
        if len(args) > len(names):
            raise TypeError(f"{cls}() takes {len(names)} fields but {len(args)} were given")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{cls}() got an unexpected field {name!r}")
            if name in values:
                raise TypeError(f"{cls}() got field {name!r} twice")
            values[name] = value
        for name in names:
            if name not in values:
                raise TypeError(f"{cls}() missing field {name!r}")
            object.__setattr__(self, name, values[name])
        self._check()

    @classmethod
    def _unchecked(cls, *values):
        """An instance whose fields, in ``__slots__`` order, are values valid
        by construction, bound without calling ``_check``."""
        record = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            object.__setattr__(record, name, value)
        return record

    def _check(self) -> None:
        """Validate the bound fields, raising DomainError; a subclass with
        nothing to validate keeps this one, which accepts everything."""

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
