"""Number-theoretic helpers and explicit permutation groups on circle points.

Points on the circle are numbered 0..2n-1 internally; every serialized or
displayed form is 1-based.

A group is the closure of its generators. _closure_rows finds the image
rows of its elements, as bytes up to 256 points and tuples above, under
the one bound MAX_CLOSURE_ENTRIES, taking the generators one at a time
and keeping only those it has not yet reached; generate_group sorts the
rows and wraps each in a GroupElement. A count that needs only cycle
types reads the rows themselves: _moved_lengths walks a row's cycles that
move points, and cycle_type_of types an element by the same walk.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import islice
from operator import attrgetter, itemgetter, methodcaller
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DomainError, Record, ResourceLimitError, _require_int

STANDARD_GROUP_KINDS = ("identity", "cyclic", "dihedral")

# A closure stores one image row of `points` entries per element; past this
# many entries in all it stops, and a standard group or a group file is
# refused before it is built. Up to 256 points a row is bytes, and a
# GroupElement's tuple holds the small ints Python shares; above it a row is
# a tuple of 8-byte slots whose ints the closure's itemgetter picks from the
# identity's own, so the bound is about 80 MB of slots. D_2236 (`count
# --method burnside --group dihedral --n 1118`), the largest dihedral group
# under it, peaks at 91 MB RSS and takes about 1.3 s as a process on a 2-vCPU
# machine.
MAX_CLOSURE_ENTRIES = 10**7


class CycleType(Record):
    """Multiset of cycle lengths, stored as (length, multiplicity) pairs
    sorted by length."""

    __slots__ = ("parts",)
    parts: tuple[tuple[int, int], ...]

    def _check(self):
        parts = self.parts
        for length, mult in parts:
            # exactly int, as GroupElement's images: a bool or float is refused
            if type(length) is not int or type(mult) is not int or length < 1 or mult < 1:
                raise DomainError(f"invalid cycle type entry {length}^{mult}")
        if list(parts) != sorted(parts):
            raise DomainError("cycle type parts must be sorted by length")
        if len({length for length, _ in parts}) != len(parts):
            raise DomainError("duplicate length in cycle type")

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

    def _check(self):
        images = self.images
        if not {int}.issuperset(map(type, images)):
            raise DomainError("images must be ints")
        if sorted(images) != list(range(len(images))):
            raise DomainError("images must be a bijection on [0, size)")

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
        return GroupElement._unchecked(tuple([self.images[w] for w in other.images]))

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return self.compose(other)

    def inverse(self) -> "GroupElement":
        inv = [0] * self.size
        for v, w in enumerate(self.images):
            inv[w] = v
        return GroupElement._unchecked(tuple(inv))

    def order(self) -> int:
        return math.lcm(*(l for l, _ in cycle_type_of(self).parts)) if self.size else 1

    def is_identity(self) -> bool:
        return all(w == v for v, w in enumerate(self.images))


class PermGroup(Record):
    """A finite set of permutations of [0, size), closed under composition.

    The constructor checks that each element is listed once and that the
    elements are closed, so that the Burnside class sum and the oracle's
    orbit sizes count the orbits of a group: the closure of every listed
    element, which keeps only the ones it has not yet reached, must stay
    inside the list. It compares rows in the closure's own encoding and
    stops once the closure outgrows the list, so it takes about the
    group order times log2 of it.
    """

    __slots__ = ("size", "elements")
    size: int
    elements: tuple[GroupElement, ...]

    def _check(self):
        size = _require_int(self.size, 0, f"group size must be an int >= 0, got {self.size!r}")
        elements = self.elements
        if type(elements) is not tuple or not elements:
            raise DomainError("a group needs a non-empty tuple of elements")
        if not {GroupElement}.issuperset(map(type, elements)):
            raise DomainError("group elements must be GroupElements")
        if not {size}.issuperset(map(len, map(attrgetter("images"), elements))):
            raise DomainError(f"every group element must act on the group's {size} points")
        # the rows in the closure's own encoding, each one a generator: the
        # closure stops once it outgrows the list, so never past its size
        rows = list(map(_row_type(size), map(attrgetter("images"), elements)))
        listed = set(rows)
        if len(listed) != len(rows):
            raise DomainError("group elements must be distinct")
        if not _closure_rows(rows, size, len(rows)) <= listed:
            raise DomainError("group elements must be closed under composition")

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[GroupElement]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


def euler_phi(m: int) -> int:
    """Count of k in [1, m] coprime to m."""
    _require_int(m, 1, "euler_phi requires m >= 1")
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
    _require_int(m, 1, "divisors requires m >= 1")
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
    _require_int(n, 0, "partitions requires n >= 0")

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
    """Multiset of cycle lengths of g.

    The sorted lengths of the cycles that move points (_moved_lengths) and
    the number of points fix the type, since every other point is fixed,
    and a cache keyed by them returns one CycleType per type.
    """
    images = g.images
    return _cycle_type_of_moved(len(images), _moved_lengths(images))


def _moved_lengths(images: Sequence[int]) -> tuple[int, ...]:
    """The sorted lengths of the cycles that move points of the permutation
    v -> images[v], from one walk of those cycles; images may be a tuple or
    the bytes rows of a closure."""
    size = len(images)
    seen = [False] * size
    lengths = []
    for start in range(size):
        # seen first, so the fixed-point test runs once per cycle
        if seen[start]:
            continue
        v = images[start]
        if v == start:
            continue
        length = 1
        while v != start:
            seen[v] = True
            v = images[v]
            length += 1
        lengths.append(length)
    lengths.sort()
    return tuple(lengths)


@lru_cache(maxsize=4096)
def _cycle_type_of_moved(size: int, moved: tuple[int, ...]) -> CycleType:
    """The CycleType of a permutation of size points whose cycles that move
    points have the sorted lengths moved; a group has few distinct types,
    so the cache spares building and validating one per element."""
    return CycleType.from_lengths(moved + (1,) * (size - sum(moved)))


def make_standard_group(kind: str, points: int) -> PermGroup:
    """The identity group, the rotation group, or the full rotation and
    reflection group on an even number of circle points.

    The group is the closure of its generators: none for the identity
    group, the rotation by one point, and with it the reflection through
    point 0. For points >= 4 the dihedral group has order 2*points; on 2
    points the reflection coincides with the identity, so the group has
    order 2. Raises ResourceLimitError, before building anything, when the
    elements would store more than MAX_CLOSURE_ENTRIES image entries.
    """
    message = "points must be even and >= 2"
    if _require_int(points, 2, message) % 2:
        raise DomainError(message)
    built = {"identity": 1, "cyclic": points, "dihedral": 2 * points}.get(kind, 0)
    if built * points > MAX_CLOSURE_ENTRIES:
        raise ResourceLimitError(
            f"the {kind} group on {points} points needs {built * points} stored"
            f" image entries, more than {MAX_CLOSURE_ENTRIES}"
        )
    if kind not in STANDARD_GROUP_KINDS:
        raise DomainError(f"unknown group kind {kind!r}")
    # the rotation and the reflection, on the points checked above
    generators = []
    if kind != "identity":
        generators.append(GroupElement._unchecked((*range(1, points), 0)))
    if kind == "dihedral":
        generators.append(GroupElement._unchecked((0, *range(points - 1, 0, -1))))
    return generate_group(generators, points)


def generate_group(generators: Sequence[GroupElement], points: int) -> PermGroup:
    """Closure of the generators under composition (hence under inverse,
    the group being finite), sorted by images. Always contains the identity.

    The rows come from _closure_rows, with its checks and its bound.
    """
    rows = _closure_rows([g.images for g in generators], points)
    # bytes sort as their tuples do; each entry is replaced in place, so the
    # two encodings are never both held in full
    ordered = sorted(rows)
    del rows
    for idx, images in enumerate(ordered):
        ordered[idx] = GroupElement._unchecked(tuple(images))
    return PermGroup._unchecked(points, tuple(ordered))


def _closure_rows(
    generators: Sequence[Sequence[int]], points: int, most: int | None = None
) -> set:
    """The image row of every element of the group that the generators,
    image rows of permutations of [0, points), generate: bytes up to 256
    points, tuples above (_row_type), in no order. Always contains the
    identity's.

    The generators join one at a time, and one whose row is already
    reached is skipped, so at most log2 of the group order are kept. The
    rows reached form the group H of the kept generators, and a new
    generator maps H onto a coset disjoint from it: each reached row is
    multiplied by it once, and only the new rows then go through every
    kept generator. The work is the group order times the kept
    generators, not times the listed ones.

    Raises ResourceLimitError once the rows found, or the rows reached and
    a new generator's coset of them, would store more than
    MAX_CLOSURE_ENTRIES image entries. This is the one bound: on 9 points
    or fewer no group passes it (9! * 9 < 10^7 entries), and on more it
    allows at most 10^6 elements. Given most, it stops instead as soon as
    it has found more than most rows and returns them, so that PermGroup's
    check of a list of most elements stops where the closure outgrows it.
    """
    _check_generators(generators, points)
    if points < 2:
        # the identity is the only permutation of 0 or 1 points
        return {bytes(range(points))}
    limit = MAX_CLOSURE_ENTRIES // points if most is None else most
    encode = _row_type(points)
    seen = {encode(range(points))}
    steps = []
    for images in generators:
        row = encode(images)
        if row in seen:
            continue
        if encode is bytes:
            # g * current: bytes.translate maps each entry through g's
            # images in C, and a bytes object caches its hash for the set
            step = methodcaller("translate", row.ljust(256, b"\0"))
        else:
            # current * g picks current's entries at g's images
            step = itemgetter(*row)
        steps.append(step)
        # the reached rows times row: a coset of as many new rows
        coset = map(step, list(seen))
        # the group holds both, so it outgrows the bound already
        if 2 * len(seen) > limit:
            if most is None:
                raise ResourceLimitError(_entries_message(points))
            seen.update(islice(coset, limit + 1 - len(seen)))
            return seen
        frontier = list(coset)
        seen.update(frontier)
        while frontier:
            current = frontier.pop()
            for step in steps:
                nxt = step(current)
                if nxt not in seen:
                    seen.add(nxt)
                    if len(seen) > limit:
                        if most is not None:
                            return seen
                        raise ResourceLimitError(_entries_message(points))
                    frontier.append(nxt)
    return seen


def _check_generators(generators: Sequence[Sequence[int]], points: int) -> None:
    """The closure's checks of its input, made before it reads any row:
    each generator has points entries, and points is within the bound."""
    for images in generators:
        if len(images) != points:
            raise DomainError(
                f"generator size {len(images)} does not match points={points}"
            )
    if points > MAX_CLOSURE_ENTRIES:
        raise ResourceLimitError(_entries_message(points))


def _row_type(points: int) -> type:
    """How a closure on points points encodes a row: bytes up to 256
    points, a tuple above."""
    return bytes if points <= 256 else tuple


def _entries_message(points: int) -> str:
    return (
        f"group closure on {points} points exceeded {MAX_CLOSURE_ENTRIES}"
        " stored image entries"
    )
