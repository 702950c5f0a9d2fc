"""Number-theoretic helpers and explicit permutation groups on circle points.

Points on the circle are numbered 0..2n-1 internally; every serialized or
displayed form is 1-based.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DomainError, Record, ResourceLimitError

STANDARD_GROUP_KINDS = ("identity", "cyclic", "dihedral")

DEFAULT_CLOSURE_CAP = 10**6

# A group stores one image tuple of `points` entries per element; past this
# many entries in all (about 80 MB of tuple slots) a closure stops, and a
# standard group or a group file is refused before it is built.
MAX_CLOSURE_ENTRIES = 10**7


class CycleType(Record):
    """Multiset of cycle lengths, stored as (length, multiplicity) pairs
    sorted by length."""

    __slots__ = ("parts",)
    parts: tuple[tuple[int, int], ...]

    def __init__(self, parts: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "parts", parts)
        for length, mult in parts:
            if length < 1 or mult < 1:
                raise DomainError(f"invalid cycle type entry {length}^{mult}")
        if list(parts) != sorted(parts):
            raise DomainError("cycle type parts must be sorted by length")
        if len({length for length, _ in parts}) != len(parts):
            raise DomainError("duplicate length in cycle type")

    def __hash__(self):
        # Record's hash without its generic field walk: a class split
        # hashes one CycleType per group element
        return hash((self.parts,))

    @classmethod
    def from_counts(cls, counts: Mapping[int, int]) -> "CycleType":
        return cls(tuple(sorted((l, m) for l, m in counts.items() if m)))

    @classmethod
    def from_lengths(cls, lengths: Iterable[int]) -> "CycleType":
        counts: dict[int, int] = {}
        for l in lengths:
            counts[l] = counts.get(l, 0) + 1
        return cls.from_counts(counts)

    @property
    def degree(self) -> int:
        return sum(l * m for l, m in self.parts)

    def multiplicity(self, length: int) -> int:
        for l, m in self.parts:
            if l == length:
                return m
        return 0

    def __str__(self):
        return " ".join(f"{l}^{m}" for l, m in self.parts) or "(empty)"


class GroupElement(Record):
    """A permutation of the circle points, identified by its image array."""

    __slots__ = ("images",)
    images: tuple[int, ...]

    def __init__(self, images: tuple[int, ...]):
        object.__setattr__(self, "images", images)
        if sorted(images) != list(range(len(images))):
            raise DomainError("images must be a bijection on [0, size)")

    def __hash__(self):
        # Record's hash, one call shorter (see CycleType.__hash__)
        return hash((self.images,))

    @classmethod
    def identity(cls, size: int) -> "GroupElement":
        return cls(tuple(range(size)))

    @classmethod
    def rotation(cls, size: int, shift: int) -> "GroupElement":
        """v -> (v + shift) mod size."""
        return cls(tuple((v + shift) % size for v in range(size)))

    @classmethod
    def reflection(cls, size: int, shift: int) -> "GroupElement":
        """v -> (shift - v) mod size."""
        return cls(tuple((shift - v) % size for v in range(size)))

    @classmethod
    def from_images(cls, images: Sequence[int]) -> "GroupElement":
        return cls(tuple(images))

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, v: int) -> int:
        return self.images[v]

    def compose(self, other: "GroupElement") -> "GroupElement":
        """self after other: (self * other)(v) = self(other(v))."""
        if self.size != other.size:
            raise DomainError("cannot compose elements of different sizes")
        return GroupElement(tuple(self.images[w] for w in other.images))

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return self.compose(other)

    def inverse(self) -> "GroupElement":
        inv = [0] * self.size
        for v, w in enumerate(self.images):
            inv[w] = v
        return GroupElement(tuple(inv))

    def order(self) -> int:
        return math.lcm(*(l for l, _ in cycle_type_of(self).parts)) if self.size else 1

    def is_identity(self) -> bool:
        return all(w == v for v, w in enumerate(self.images))


class PermGroup(Record):
    """A finite set of permutations of [0, size), closed under composition."""

    __slots__ = ("size", "elements")
    size: int
    elements: tuple[GroupElement, ...]

    def __init__(self, size: int, elements: tuple[GroupElement, ...]):
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "elements", elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[GroupElement]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


def euler_phi(m: int) -> int:
    """Count of k in [1, m] coprime to m."""
    if m < 1:
        raise DomainError("euler_phi requires m >= 1")
    result = m
    rest = m
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            result -= result // p
        p += 1
    if rest > 1:
        result -= result // rest
    return result


def divisors(m: int) -> list[int]:
    """All divisors of m, ascending."""
    if m < 1:
        raise DomainError("divisors requires m >= 1")
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d * d != m:
                large.append(m // d)
        d += 1
    large.reverse()
    return small + large


def partitions(n: int) -> Iterator[CycleType]:
    """Integer partitions of n as CycleTypes, in descending-lexicographic
    order of the part lists (so [n] first, [1]*n last)."""
    if n < 0:
        raise DomainError("partitions requires n >= 0")

    def gen(remaining: int, max_part: int, prefix: list[int]):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(remaining, max_part), 0, -1):
            prefix.append(part)
            yield from gen(remaining - part, part, prefix)
            prefix.pop()

    for parts in gen(n, n if n else 1, []):
        yield CycleType.from_lengths(parts)


def cycle_type_of(g: GroupElement) -> CycleType:
    """Multiset of cycle lengths of g."""
    images = g.images
    seen = [False] * len(images)
    lengths = []
    for start, v in enumerate(images):
        if seen[start]:
            continue
        length = 1
        while v != start:
            seen[v] = True
            v = images[v]
            length += 1
        lengths.append(length)
    lengths.sort()
    return _cycle_type_of_lengths(tuple(lengths))


@lru_cache(maxsize=4096)
def _cycle_type_of_lengths(lengths: tuple[int, ...]) -> CycleType:
    """One validated CycleType per sorted length tuple; a group has few
    distinct types, so the cache spares validating one per element."""
    return CycleType.from_lengths(lengths)


def _sorted_group(size: int, elements: Iterable[GroupElement]) -> PermGroup:
    ordered = tuple(sorted(set(elements), key=lambda g: g.images))
    return PermGroup(size, ordered)


def make_standard_group(kind: str, points: int) -> PermGroup:
    """The identity group, the rotation group, or the full rotation and
    reflection group on an even number of circle points.

    For points >= 4 the dihedral group has order 2*points; on 2 points the
    single reflection coincides with the half-turn, so the set degenerates
    to order 2. Raises ResourceLimitError, before building anything, when
    the elements would store more than MAX_CLOSURE_ENTRIES image entries.
    """
    if points < 2 or points % 2:
        raise DomainError("points must be even and >= 2")
    built = {"identity": 1, "cyclic": points, "dihedral": 2 * points}.get(kind, 0)
    if built * points > MAX_CLOSURE_ENTRIES:
        raise ResourceLimitError(
            f"the {kind} group on {points} points needs {built * points} stored"
            f" image entries, more than {MAX_CLOSURE_ENTRIES}"
        )
    if kind == "identity":
        elems = [GroupElement.identity(points)]
    elif kind == "cyclic":
        elems = [GroupElement.rotation(points, s) for s in range(points)]
    elif kind == "dihedral":
        elems = [GroupElement.rotation(points, s) for s in range(points)]
        elems += [GroupElement.reflection(points, s) for s in range(points)]
    else:
        raise DomainError(f"unknown group kind {kind!r}")
    return _sorted_group(points, elems)


def generate_group(
    generators: Sequence[GroupElement],
    points: int,
    max_elements: int = DEFAULT_CLOSURE_CAP,
) -> PermGroup:
    """Closure of the generators under composition (hence under inverse,
    the group being finite). Always contains the identity."""
    for g in generators:
        if g.size != points:
            raise DomainError(
                f"generator size {g.size} does not match points={points}"
            )
    if points > MAX_CLOSURE_ENTRIES:
        raise ResourceLimitError(_entries_message(points))
    if points < 2:
        # the identity is the only permutation of 0 or 1 points (and
        # itemgetter with one index returns a bare int, not a tuple)
        return PermGroup(points, (GroupElement.identity(points),))
    limit = min(max_elements, MAX_CLOSURE_ENTRIES // points)
    # current * g picks current's entries at g's images
    steps = [itemgetter(*g.images) for g in generators]
    identity = tuple(range(points))
    seen = {identity}
    frontier = [identity]
    while frontier:
        current = frontier.pop()
        for step in steps:
            nxt = step(current)
            if nxt not in seen:
                seen.add(nxt)
                if len(seen) > limit:
                    if len(seen) > max_elements:
                        raise ResourceLimitError(
                            f"group closure exceeded {max_elements} elements"
                        )
                    raise ResourceLimitError(_entries_message(points))
                frontier.append(nxt)
    return PermGroup(points, tuple(GroupElement(images) for images in sorted(seen)))


def _entries_message(points: int) -> str:
    return (
        f"group closure on {points} points exceeded {MAX_CLOSURE_ENTRIES}"
        " stored image entries"
    )
