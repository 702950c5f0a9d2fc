"""Closed-form counts of diagrams up to rotation and up to rotation plus
reflection, with their asymptotic lower bounds.

The number of matchings a permutation fixes depends only on its cycle
type; fixed_matching_count evaluates it, and the closed forms and the
Burnside class sum both call it.

All results are exact integers; the intermediate divisions are asserted
exact (see errors.ConsistencyError).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import DomainError, Record, exact_div
from .groups import CycleType, divisors, euler_phi

if TYPE_CHECKING:
    from fractions import Fraction


def double_factorial(m: int) -> int:
    """m!! for odd m, with (-1)!! == 1."""
    result = 1
    while m > 1:
        result *= m
        m -= 2
    return result


def diagram_count(n: int) -> int:
    """(2n-1)!!: the number of distinct diagrams under the identity group."""
    if n < 1:
        raise DomainError("diagram_count requires n >= 1")
    return double_factorial(2 * n - 1)


def fixed_matching_count(cycle_type: CycleType) -> int:
    """Number of perfect matchings fixed by a permutation of this cycle type.

    A fixed matching maps the chords at a cycle of length l onto chords at
    cycles of the same length, so the count is a product over lengths with
    m cycles each. Two l-cycles can be joined in l ways. An odd cycle can
    only be joined to another one: [m even] * l^(m/2) * (m-1)!!. An even
    cycle may also be matched to itself by its l/2 diameters, which gives
    sum_k C(m, 2k) * l^k * (2k-1)!!. That sum is evaluated by the
    recurrence a_m = a_(m-1) + (m-1) * l * a_(m-2), a_0 = a_1 = 1: the
    last cycle is matched to itself, or joined in l ways to one of the
    other m-1.
    """
    total = 1
    for length, mult in cycle_type.parts:
        if length % 2:
            if mult % 2:
                return 0
            total *= length ** (mult // 2) * double_factorial(mult - 1)
        else:
            previous, current = 1, 1
            for m in range(2, mult + 1):
                previous, current = current, current + (m - 1) * length * previous
            total *= current
    return total


def rotation_fixed_count(n: int, i: int) -> int:
    """Number of matchings on 2n points fixed by a rotation of order i,
    whose cycle type is i^(2n/i)."""
    if n < 1:
        raise DomainError("rotation_fixed_count requires n >= 1")
    if i < 1 or (2 * n) % i:
        raise DomainError(f"{i} does not divide {2 * n}")
    return fixed_matching_count(CycleType(((i, 2 * n // i),)))


def cyclic_count(n: int) -> int:
    """Number of diagrams of order n up to rotation."""
    if n < 1:
        raise DomainError("cyclic_count requires n >= 1")
    total = sum(euler_phi(i) * rotation_fixed_count(n, i) for i in divisors(2 * n))
    return exact_div(total, 2 * n, "cyclic_count")


def wreath_uniform_count(n: int, i: int) -> int:
    """Number of pair-permutations-with-flips on n pairs whose entry cycles
    all have length i (i must divide 2n)."""
    if n < 1:
        raise DomainError("wreath_uniform_count requires n >= 1")
    if i < 1 or (2 * n) % i:
        raise DomainError(f"{i} does not divide {2 * n}")
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
    if n < 0:
        raise DomainError("partial_pairing_count requires n >= 0")
    return sum(
        math.factorial(n) // (math.factorial(k) * math.factorial(n - 2 * k))
        for k in range(n // 2 + 1)
    )


def reflection_type_wreath_count(n: int) -> int:
    """Number of pair-permutations-with-flips on n pairs whose entry cycle
    type is two fixed points plus (n-1) transpositions, i.e. the type of a
    point-fixing reflection."""
    if n < 1:
        raise DomainError("reflection_type_wreath_count requires n >= 1")
    total = 0
    for l in range(1, n + 1):
        if (n - l) % 2 == 0:
            k = (n - l) // 2
            total += l * math.factorial(n) // (math.factorial(l) * math.factorial(k))
    return total


def dihedral_count(n: int) -> int:
    """Number of diagrams of order n up to rotation and reflection."""
    if n < 1:
        raise DomainError("dihedral_count requires n >= 1")
    # n reflections fix no point (type 2^n), n fix two (type 1^2 2^(n-1))
    reflection_part = exact_div(
        fixed_matching_count(CycleType(((2, n),)))
        + fixed_matching_count(CycleType.from_counts({1: 2, 2: n - 1})),
        2,
        "dihedral_count reflection term",
    )
    return exact_div(cyclic_count(n) + reflection_part, 2, "dihedral_count")


class AsymptoticBound(Record):
    """Exact rational lower bound (2n-1)!!/(2n) or (2n-1)!!/(4n) together
    with its integer part."""

    __slots__ = ("kind", "n", "numerator", "denominator", "exact_floor")
    kind: str
    n: int
    numerator: int
    denominator: int
    exact_floor: int

    def __init__(self, kind: str, n: int, numerator: int, denominator: int, exact_floor: int):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "exact_floor", exact_floor)

    @property
    def as_fraction(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.numerator, self.denominator)


def asymptotic_lower_bound(kind: str, n: int) -> AsymptoticBound:
    """Lower bound for the cyclic or dihedral count; each orbit has at most
    2n (cyclic) or 4n (dihedral) diagrams, so the bound is also the
    asymptotic value."""
    if n < 1:
        raise DomainError("asymptotic_lower_bound requires n >= 1")
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
