"""Closed-form counts of diagrams up to rotation and up to rotation plus
reflection, with their asymptotic lower bounds.

The number of matchings a permutation fixes depends only on its cycle
type. _class_sum is the one place that evaluates it: given the classes as
(parts, size) pairs, parts being a cycle type's sorted (length,
multiplicity) pairs, it walks each cycle length's multiplicities once for
all the types and divides the Burnside total by the group order.
cyclic_count, dihedral_count, burnside.burnside_count and
fixed_matching_count are each one call of it.

All results are exact integers; the intermediate divisions are asserted
exact (see errors.ConsistencyError).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Collection

from .errors import DomainError, Record, _require_int, exact_div
from .groups import CycleType, divisors, euler_phi

if TYPE_CHECKING:
    from fractions import Fraction

# a cycle type's (length, multiplicity) pairs, sorted by length
_Parts = tuple[tuple[int, int], ...]


def double_factorial(m: int) -> int:
    """m!! for m >= -1, with (-1)!! == 0!! == 1."""
    _require_int(m, -1, "double_factorial requires m >= -1")
    result = 1
    while m > 1:
        result *= m
        m -= 2
    return result


def diagram_count(n: int) -> int:
    """(2n-1)!!: the number of distinct diagrams under the identity group."""
    _require_int(n, 1, "diagram_count requires n >= 1")
    return double_factorial(2 * n - 1)


def _class_sum(classes: Collection[tuple[_Parts, int]], order: int, context: str) -> int:
    """Sum of size * (matchings a permutation of the type fixes) over the
    (parts, size) classes, divided exactly by order.

    A fixed matching maps the chords at a cycle of length l onto chords at
    cycles of the same length, so the count is a product over lengths with
    m cycles each. Two l-cycles can be joined in l ways. An odd cycle can
    only be joined to another one: [m even] * l^(m/2) * (m-1)!!. An even
    cycle may also be matched to itself by its l/2 diameters, which gives
    sum_k C(m, 2k) * l^k * (2k-1)!!. That sum is evaluated by the
    recurrence a_m = a_(m-1) + (m-1) * l * a_(m-2), a_0 = a_1 = 1: the
    last cycle is matched to itself, or joined in l ways to one of the
    other m-1. Each length's multiplicities, over all the types, are
    walked once in ascending order, each factor extending the last.
    """
    factors: dict[tuple[int, int], int] = {}
    walked = 0
    for length, mult in sorted({part for parts, _ in classes for part in parts}):
        if length != walked:
            # at m = 0: a_0 (or (-1)!!) = 1, and a_(-1) never counts
            walked, m, previous, current = length, 0, 0, 1
        if length % 2 == 0:
            for k in range(m + 1, mult + 1):
                previous, current = current, current + (k - 1) * length * previous
            m, factors[length, mult] = mult, current
        elif mult % 2:
            factors[length, mult] = 0
        else:
            current *= math.prod(range(m + 1, mult, 2))
            m, factors[length, mult] = mult, current * length ** (mult // 2)
    total = sum(size * math.prod(map(factors.__getitem__, parts)) for parts, size in classes)
    return exact_div(total, order, context)


def fixed_matching_count(cycle_type: CycleType) -> int:
    """Number of perfect matchings fixed by a permutation of this cycle type."""
    return _class_sum([(cycle_type.parts, 1)], 1, "fixed_matching_count")


def _rotation_classes(n: int) -> list[tuple[_Parts, int]]:
    """The classes of C_2n: phi(i) rotations of order i, of type i^(2n/i)."""
    return [(((i, 2 * n // i),), euler_phi(i)) for i in divisors(2 * n)]


def _require_divisor(n: int, i: int, context: str):
    """Refuse an order n below 1, or an i that is not a divisor of 2n."""
    _require_int(n, 1, f"{context} requires n >= 1")
    message = f"{i} does not divide {2 * n}"
    if (2 * n) % _require_int(i, 1, message):
        raise DomainError(message)


def rotation_fixed_count(n: int, i: int) -> int:
    """Number of matchings on 2n points fixed by a rotation of order i,
    whose cycle type is i^(2n/i)."""
    _require_divisor(n, i, "rotation_fixed_count")
    return _class_sum([(((i, 2 * n // i),), 1)], 1, "rotation_fixed_count")


def cyclic_count(n: int) -> int:
    """Number of diagrams of order n up to rotation."""
    _require_int(n, 1, "cyclic_count requires n >= 1")
    return _class_sum(_rotation_classes(n), 2 * n, "cyclic_count")


def wreath_uniform_count(n: int, i: int) -> int:
    """Number of pair-permutations-with-flips on n pairs whose entry cycles
    all have length i (i must divide 2n)."""
    _require_divisor(n, i, "wreath_uniform_count")
    from fractions import Fraction  # imported here: with decimal, a few ms of start-up

    if i % 2:
        value = Fraction(
            2**n * math.factorial(n),
            2 ** (n // i) * i ** (n // i) * math.factorial(n // i),
        )
    else:
        base = Fraction(2**n * math.factorial(n), i ** (2 * n // i))
        value = base * sum(
            Fraction(i**k, math.factorial(2 * n // i - 2 * k) * 2**k * math.factorial(k))
            for k in range(n // i + 1)
        )
    return exact_div(value.numerator, value.denominator, "wreath_uniform_count")


def partial_pairing_count(n: int) -> int:
    """Sum over k of n! / (k! * (n-2k)!): the number of ways to pick any
    number of disjoint ordered pairs from n items. Equals the count of
    pair-permutations-with-flips whose entry cycles all have length 2."""
    _require_int(n, 0, "partial_pairing_count requires n >= 0")
    return sum(
        exact_div(math.perm(n, 2 * k), math.factorial(k), "partial_pairing_count")
        for k in range(n // 2 + 1)
    )


def reflection_type_wreath_count(n: int) -> int:
    """Number of pair-permutations-with-flips on n pairs whose entry cycle
    type is two fixed points plus (n-1) transpositions, i.e. the type of a
    point-fixing reflection."""
    _require_int(n, 1, "reflection_type_wreath_count requires n >= 1")
    context = "reflection_type_wreath_count"
    return sum(
        exact_div((n - 2 * k) * math.perm(n, 2 * k), math.factorial(k), context)
        for k in range((n + 1) // 2)
    )


def dihedral_count(n: int) -> int:
    """Number of diagrams of order n up to rotation and reflection."""
    _require_int(n, 1, "dihedral_count requires n >= 1")
    # n reflections fix no point (type 2^n), n fix two (type 1^2 2^(n-1))
    reflections = [(((2, n),), n), (((1, 2), (2, n - 1)) if n > 1 else ((1, 2),), n)]
    return _class_sum(_rotation_classes(n) + reflections, 4 * n, "dihedral_count")


class AsymptoticBound(Record):
    """Exact rational lower bound (2n-1)!!/(2n) or (2n-1)!!/(4n) together
    with its integer part."""

    __slots__ = ("kind", "n", "numerator", "denominator", "exact_floor")
    kind: str
    n: int
    numerator: int
    denominator: int
    exact_floor: int

    @property
    def as_fraction(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.numerator, self.denominator)


def asymptotic_lower_bound(kind: str, n: int) -> AsymptoticBound:
    """Lower bound for the cyclic or dihedral count; each orbit has at most
    2n (cyclic) or 4n (dihedral) diagrams, so the bound is also the
    asymptotic value."""
    _require_int(n, 1, "asymptotic_lower_bound requires n >= 1")
    if kind == "cyclic":
        denominator = 2 * n
    elif kind == "dihedral":
        denominator = 4 * n
    else:
        raise DomainError(f"unknown bound kind {kind!r}")
    numerator = diagram_count(n)
    return AsymptoticBound(
        kind=kind,
        n=n,
        numerator=numerator,
        denominator=denominator,
        exact_floor=numerator // denominator,
    )
