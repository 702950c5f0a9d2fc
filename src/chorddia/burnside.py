"""Orbit counting for diagrams under an arbitrary permutation group.

By Burnside's lemma the number of orbits is the average, over the group,
of the number of matchings each element fixes. That number depends only
on the element's cycle type, so the average is a sum over the cycle-type
classes of the acting group: closed_forms._class_sum, the same class sum
that evaluates the closed forms, computes it from each class's parts. The
split into classes (_class_sizes) types each element with one walk of its
cycles that move points: their sorted lengths fix the cycle type, since
every other point is fixed, and a cache keyed by them returns one
CycleType per type. The CLI's count of a group file, _generated_count,
makes the same split straight from the closure's image rows of the group
its generators generate, so it builds no element, sorts nothing and holds
no PermGroup. It closes the group on its support, the points that some
generator moves, under the closure's bound for all 2n points, since the
other points are fixed points of every element and only pad the cycle
type.

The wreath class sum is a second, independent derivation of the same
count. A perfect matching of [0, 2n) can be written as an n x 2 matrix of
point labels, determined up to permuting rows and swapping entries within
rows, i.e. up to the group of pair permutations with flips (order
2^n * n!). Counting orbits then reduces to a double sum over the cycle
types of that group and of the acting group. One generator, _wreath_terms,
walks the pair-permutation types and how each of their cycles acts on the
matrix entries; for a given acting cycle type it visits only the terms
whose cycle lengths occur in it, so no whole table of wreath classes is
built. Only verification uses it.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import product
from operator import attrgetter
from typing import Iterator, Mapping, Sequence

from . import groups
from .closed_forms import _class_sum
from .errors import DomainError, Record, ResourceLimitError, _require_int, exact_div
from .groups import CycleType, PermGroup, cycle_type_of


class WreathTypeDistribution(Record):
    """How many of the 2^n * n! pair-permutations-with-flips have each cycle
    type, viewed as permutations of the 2n matrix entries."""

    __slots__ = ("n", "entries")
    n: int
    entries: Mapping[CycleType, int]

    @property
    def total(self) -> int:
        return sum(self.entries.values())


def falling_factorial(a: int, k: int) -> int:
    """a * (a-1) * ... * (a-k+1) for a, k >= 0: 1 for k == 0, 0 for k > a."""
    _require_int(a, 0, "falling_factorial requires a >= 0")
    _require_int(k, 0, "falling_factorial requires k >= 0")
    return math.perm(a, k)


def _wreath_terms(
    n: int, eta: Mapping[int, int] | None = None
) -> Iterator[tuple[int, int]]:
    """The wreath terms of order n: one for each pair-permutation type tau
    (a partition of n) and each choice of how its cycles act on the matrix
    entries.

    Half of the 2^l flip assignments on an l-cycle of tau make two entry
    cycles of length l, the other half one entry cycle of length 2l, and
    the cycles of tau act independently. So if j of the m l-cycles of tau
    split, for each length l, the term stands for
    n! / prod(l^m * m!) * 2^(n - sum m) * prod C(m, j)
    pair permutations with flips, whose entry cycle type pi has 2j cycles
    of length l and m - j of length 2l from each part l^m.

    Yields (code, weight). The code packs pi into one integer, with pi_l in
    the bit field of width (2n).bit_length() at position l (every count is
    at most 2n), so that adding codes adds cycle types; _unpack reads it.
    Without eta the weight is the number of pair permutations with flips.
    Given an acting cycle type eta as {length: count}, only the parts l
    with l or 2l in eta are taken, a part's split choices stop where its
    entry-cycle counts would pass eta's, and the weight is multiplied by
    prod_l l^pi_l * (eta_l)_(pi_l), the number of ways to map the entry
    cycles one to one onto acting cycles of the same lengths (0 where
    two parts together pass eta_l).
    """
    n_fact = math.factorial(n)
    width = (2 * n).bit_length()
    if eta is None:
        lengths = range(1, n + 1)
    else:
        lengths = [l for l in range(1, n + 1) if l in eta or 2 * l in eta]

    def splits(l: int, m: int) -> range:
        """The allowed numbers j of the m l-cycles that split."""
        if eta is None:
            return range(m + 1)
        return range(max(0, m - eta.get(2 * l, 0)), min(m, eta.get(l, 0) // 2) + 1)

    tau: list[tuple[int, int, range]] = []

    def types(start: int, left: int) -> Iterator[list[tuple[int, int, range]]]:
        """Partitions of left into parts lengths[start:], ascending, as
        (l, m, allowed splits) appended to tau."""
        if not left:
            yield tau
            return
        for idx in range(start, len(lengths)):
            l = lengths[idx]
            if l > left:
                return
            for m in range(1, left // l + 1):
                js = splits(l, m)
                if not js:
                    break  # and empty for every larger m
                tau.append((l, m, js))
                yield from types(idx + 1, left - l * m)
                tau.pop()

    for parts in types(0, n):
        denominator = 1
        cycles = 0
        combs: list[list[int]] = []
        codes: list[list[int]] = []
        for l, m, js in parts:
            denominator *= l**m * math.factorial(m)
            cycles += m
            combs.append([math.comb(m, j) for j in js])
            codes.append([(2 * j << width * l) + (m - j << 2 * width * l) for j in js])
        base = exact_div(n_fact, denominator, "wreath class size") << (n - cycles)
        for comb_choice, code_choice in zip(product(*combs), product(*codes)):
            code = sum(code_choice)
            weight = base * math.prod(comb_choice)
            if eta is not None:
                for l, count in _unpack(code, n):
                    weight *= l**count * math.perm(eta[l], count)
            yield code, weight


def _unpack(code: int, n: int) -> tuple[tuple[int, int], ...]:
    """The (length, count) pairs, by length, of an entry cycle type that
    _wreath_terms packed for order n."""
    width = (2 * n).bit_length()
    parts = []
    while code:
        length = (code.bit_length() - 1) // width
        count = code >> width * length
        parts.append((length, count))
        code -= count << width * length
    return tuple(reversed(parts))


def wreath_cycle_type_distribution(n: int) -> WreathTypeDistribution:
    """Distribution of cycle types over the matching-symmetry group for
    order n. Every key has degree 2n; counts sum to 2^n * n!."""
    _require_int(n, 1, "wreath distribution requires n >= 1")
    grouped: dict[int, int] = {}
    for code, weight in _wreath_terms(n):
        grouped[code] = grouped.get(code, 0) + weight
    return WreathTypeDistribution(
        n=n,
        entries={CycleType._unchecked(_unpack(code, n)): count for code, count in grouped.items()},
    )


def _class_sizes(n: int, group: PermGroup, context: str) -> Counter:
    """Number of elements of the acting group with each cycle type, keyed by
    the type's parts, in the order of each class's first element.

    cycle_type_of is read through this module and called once per element,
    so a tracer that wraps it counts and times the split. It returns one
    cached CycleType per type; the elements are counted by its parts, a
    tuple that hashes in C.
    """
    _require_int(n, 1, f"{context} requires n >= 1")
    if group.size != 2 * n:
        raise DomainError(f"group acts on {group.size} points, expected {2 * n}")
    return Counter(map(attrgetter("parts"), map(cycle_type_of, group.elements)))


def burnside_count(n: int, group: PermGroup) -> int:
    """Number of group orbits of chord diagrams of order n: the sum over
    cycle-type classes of class size times fixed matchings, divided by
    the group order."""
    sizes = _class_sizes(n, group, "burnside_count")
    return _class_sum(sizes.items(), group.order, "burnside_count")


def _generated_count(n: int, generators: Sequence[Sequence[int]]) -> int:
    """burnside_count of the group that the image rows generate on 2n
    points, read from the closure's rows themselves: no GroupElement, sort
    or PermGroup is built.

    The rows must be permutations of [0, 2n), as the CLI's group-file
    reader checks them. The group is closed on its support, the s points
    that some generator moves, relabelled 0..s-1: every element fixes the
    other points. Each closure row is keyed by the sorted lengths of its
    cycles that move points, which with 2n fix its cycle type, and the
    group order is the number of rows. The checks and the bound are the
    closure's on 2n points, made before the support is read: at most
    MAX_CLOSURE_ENTRIES // 2n rows, whatever s is.
    """
    _require_int(n, 1, "_generated_count requires n >= 1")
    points = 2 * n
    groups._check_generators(generators, points)
    most = groups.MAX_CLOSURE_ENTRIES // points
    support = sorted({v for images in generators for v in range(points) if images[v] != v})
    label = {v: i for i, v in enumerate(support)}
    rows = groups._closure_rows(
        [[label[images[v]] for v in support] for images in generators], len(support), most
    )
    if len(rows) > most:
        raise ResourceLimitError(groups._entries_message(points))
    moved = Counter(map(groups._moved_lengths, rows))
    sizes = [(groups._cycle_type_of_moved(points, lengths).parts, size)
             for lengths, size in moved.items()]
    return _class_sum(sizes, len(rows), "burnside_count")


def _wreath_class_sum(n: int, group: PermGroup) -> int:
    """The orbit count of burnside_count, derived without the fixed counts
    of closed_forms._class_sum.

    Averages, over both groups, the number of matrix/point relabelling
    pairs that map a matching to itself; a pair contributes only when the
    two permutations have compatible cycle structure, which reduces the
    average to a sum, for each acting class, over the wreath terms whose
    cycle lengths occur in it.
    """
    sizes = _class_sizes(n, group, "_wreath_class_sum")
    total = 0
    for parts, g_mult in sizes.items():
        total += g_mult * sum(weight for _, weight in _wreath_terms(n, dict(parts)))
    denominator = 2**n * math.factorial(n) * group.order
    return exact_div(total, denominator, "wreath class sum")
