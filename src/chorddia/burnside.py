"""Orbit counting for diagrams under an arbitrary permutation group.

By Burnside's lemma the number of orbits is the average, over the group,
of the number of matchings each element fixes. That number depends only
on the element's cycle type (closed_forms.fixed_matching_count), so the
average is a sum over cycle-type classes of the acting group.

The wreath class sum is a second, independent derivation of the same
count. A perfect matching of [0, 2n) can be written as an n x 2 matrix of
point labels, determined up to permuting rows and swapping entries within
rows, i.e. up to the group of pair permutations with flips (order
2^n * n!). Counting orbits then reduces to a double sum over the cycle
types of that group and of the acting group. Only verification uses it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from typing import Mapping

from .closed_forms import fixed_matching_count
from .errors import DomainError, Record, exact_div
from .groups import CycleType, PermGroup, cycle_type_of, partitions

PartsKey = tuple[tuple[int, int], ...]


class WreathTypeDistribution(Record):
    """How many of the 2^n * n! pair-permutations-with-flips have each cycle
    type, viewed as permutations of the 2n matrix entries."""

    __slots__ = ("n", "entries")
    n: int
    entries: Mapping[CycleType, int]

    def __init__(self, n: int, entries: Mapping[CycleType, int]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", entries)

    @property
    def total(self) -> int:
        return sum(self.entries.values())


def falling_factorial(a: int, k: int) -> int:
    """a * (a-1) * ... * (a-k+1); 1 for k == 0, 0 as soon as the product
    passes through zero (so 0 whenever k > a >= 0)."""
    result = 1
    for t in range(k):
        result *= a - t
        if result == 0:
            return 0
    return result


@lru_cache(maxsize=None)
def _wreath_raw(n: int) -> dict[PartsKey, int]:
    """Cycle-type counts as a plain dict keyed by parts tuples.

    For a pair permutation tau with a cycle of length l, half of the 2^l
    flip assignments on that cycle produce two entry cycles of length l and
    the other half produce one entry cycle of length 2l; cycles of tau act
    independently.
    """
    entries: dict[PartsKey, int] = {}
    n_fact = math.factorial(n)
    for ct in partitions(n):
        parts = ct.parts
        num_cycles = sum(m for _, m in parts)
        denom = 1
        for l, m in parts:
            denom *= l**m * math.factorial(m)
        base = (n_fact // denom) * 2 ** (n - num_cycles)

        # choose, per length class, how many cycles split into two l-cycles
        def emit(idx: int, weight: int, acc: dict[int, int]):
            if idx == len(parts):
                key = tuple(sorted(acc.items()))
                entries[key] = entries.get(key, 0) + weight
                return
            l, m = parts[idx]
            for j in range(m + 1):
                added: list[int] = []
                if j:
                    acc[l] = acc.get(l, 0) + 2 * j
                    added.append(l)
                if m - j:
                    acc[2 * l] = acc.get(2 * l, 0) + (m - j)
                    added.append(2 * l)
                emit(idx + 1, weight * math.comb(m, j), acc)
                for length in added:
                    if length == l:
                        acc[l] -= 2 * j
                    else:
                        acc[2 * l] -= m - j
                    if acc[length] == 0:
                        del acc[length]

        emit(0, base, {})
    return entries


def wreath_cycle_type_distribution(n: int) -> WreathTypeDistribution:
    """Distribution of cycle types over the matching-symmetry group for
    order n. Every key has degree 2n; counts sum to 2^n * n!."""
    if n < 1:
        raise DomainError("wreath distribution requires n >= 1")
    raw = _wreath_raw(n)
    return WreathTypeDistribution(
        n=n, entries={CycleType(parts): count for parts, count in raw.items()}
    )


@lru_cache(maxsize=None)
def _wreath_by_support(n: int) -> dict[frozenset[int], list[tuple[PartsKey, int]]]:
    """Wreath classes grouped by their set of cycle lengths, so that for a
    given acting element only classes whose lengths all occur in it are
    visited (all other products vanish)."""
    index: dict[frozenset[int], list[tuple[PartsKey, int]]] = {}
    for parts, count in _wreath_raw(n).items():
        index.setdefault(frozenset(l for l, _ in parts), []).append((parts, count))
    return index


def _class_sizes(n: int, group: PermGroup, context: str) -> dict[CycleType, int]:
    """Number of elements of the acting group with each cycle type."""
    if n < 1:
        raise DomainError(f"{context} requires n >= 1")
    if group.size != 2 * n:
        raise DomainError(f"group acts on {group.size} points, expected {2 * n}")
    sizes: dict[CycleType, int] = {}
    for g in group.elements:
        ct = cycle_type_of(g)
        sizes[ct] = sizes.get(ct, 0) + 1
    return sizes


def burnside_count(n: int, group: PermGroup) -> int:
    """Number of group orbits of chord diagrams of order n: the sum over
    cycle-type classes of class size times fixed matchings, divided by
    the group order."""
    sizes = _class_sizes(n, group, "burnside_count")
    total = sum(size * fixed_matching_count(ct) for ct, size in sizes.items())
    return exact_div(total, group.order, "burnside_count")


def _wreath_class_sum(n: int, group: PermGroup) -> int:
    """The orbit count of burnside_count, derived without
    fixed_matching_count.

    Averages, over both groups, the number of matrix/point relabelling
    pairs that map a matching to itself; a pair contributes only when the
    two permutations have compatible cycle structure, which reduces the
    average to a sum over pairs of cycle-type classes.
    """
    sizes = _class_sizes(n, group, "_wreath_class_sum")
    by_support = _wreath_by_support(n)
    total = 0
    for g_type, g_mult in sizes.items():
        eta = dict(g_type.parts)
        support = sorted(eta)
        # wreath classes contribute only if their lengths occur in eta
        for r in range(len(support) + 1):
            for subset in combinations(support, r):
                for w_parts, w_mult in by_support.get(frozenset(subset), ()):
                    term = 1
                    for length, pi in w_parts:
                        term *= length**pi * falling_factorial(eta[length], pi)
                        if term == 0:
                            break
                    if term:
                        total += w_mult * g_mult * term

    denominator = 2**n * math.factorial(n) * group.order
    return exact_div(total, denominator, "wreath class sum")
