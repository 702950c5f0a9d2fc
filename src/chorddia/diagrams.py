"""Chord diagrams: representation, symmetry action, canonical forms,
exhaustive enumeration, crossing counts, strictness.

A diagram on 2n points is stored as its partner array: partner[v] is the
point joined to v by a chord. The circle itself is implicit in the cyclic
order of the points.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from .errors import DomainError, Record
from .groups import GroupElement, PermGroup


class ChordDiagram(Record):
    """A fixed-point-free involution on [0, 2n): a perfect matching of the
    circle points by chords."""

    __slots__ = ("partner",)
    partner: tuple[int, ...]

    def __init__(self, partner: tuple[int, ...]):
        object.__setattr__(self, "partner", partner)
        n2 = len(partner)
        if n2 % 2:
            raise DomainError("diagram needs an even number of points")
        for v in range(n2):
            w = partner[v]
            if not 0 <= w < n2 or w == v or partner[w] != v:
                raise DomainError("partner array is not a fixed-point-free involution")

    def __hash__(self):
        # Record's hash, one call shorter (see CycleType.__hash__)
        return hash((self.partner,))

    @classmethod
    def _unchecked(cls, partner: tuple[int, ...]) -> "ChordDiagram":
        """A diagram on a partner array that is a matching by construction
        (the oracle's walk built it), without checking it again."""
        d = object.__new__(cls)
        object.__setattr__(d, "partner", partner)
        return d

    @classmethod
    def from_chords(cls, chords: Sequence[tuple[int, int]], size: int | None = None) -> "ChordDiagram":
        """Build from 0-based endpoint pairs."""
        if size is None:
            size = 2 * len(chords)
        partner = [-1] * size
        for a, b in chords:
            if not (0 <= a < size and 0 <= b < size) or partner[a] != -1 or partner[b] != -1:
                raise DomainError(f"bad chord ({a}, {b})")
            partner[a] = b
            partner[b] = a
        return cls(tuple(partner))

    @property
    def size(self) -> int:
        return len(self.partner)

    @property
    def order(self) -> int:
        return len(self.partner) // 2

    def chords(self) -> list[tuple[int, int]]:
        """0-based endpoint pairs (a, b), a < b, sorted by a."""
        return [(v, w) for v, w in enumerate(self.partner) if v < w]

    def to_json_dict(self) -> dict:
        """1-based serialized form: {"n": n, "chords": [[a, b], ...]}."""
        return {"n": self.order, "chords": [[a + 1, b + 1] for a, b in self.chords()]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ChordDiagram":
        try:
            n = int(obj["n"])
            chords = [(int(a) - 1, int(b) - 1) for a, b in obj["chords"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed chord list object: {exc}") from exc
        return cls.from_chords(chords, size=2 * n)

    def __str__(self):
        return " ".join(f"({a + 1},{b + 1})" for a, b in self.chords())


def _json_line(partner: tuple[int, ...]) -> str:
    """json.dumps(ChordDiagram(partner).to_json_dict()) and a newline,
    written straight from the partner array."""
    chords = ", ".join([f"[{v + 1}, {w + 1}]" for v, w in enumerate(partner) if v < w])
    return f'{{"n": {len(partner) // 2}, "chords": [{chords}]}}\n'


def apply_symmetry(g: GroupElement, diagram: ChordDiagram) -> ChordDiagram:
    """Image of the diagram under g: point v's chord goes to point g(v)."""
    if g.size != diagram.size:
        raise DomainError(
            f"element acts on {g.size} points but diagram has {diagram.size}"
        )
    img = g.images
    old = diagram.partner
    new = [0] * len(old)
    for v in range(len(old)):
        new[img[v]] = img[old[v]]
    return ChordDiagram(tuple(new))


def canonical_form(diagram: ChordDiagram, group: PermGroup) -> ChordDiagram:
    """Lexicographically smallest partner array in the diagram's orbit.
    Two diagrams are equivalent under the group iff their canonical forms
    are equal."""
    if group.size != diagram.size:
        raise DomainError(
            f"group acts on {group.size} points but diagram has {diagram.size}"
        )
    old = diagram.partner
    n2 = len(old)
    best: tuple[int, ...] | None = None
    for g in group.elements:
        img = g.images
        candidate = [0] * n2
        for v in range(n2):
            candidate[img[v]] = img[old[v]]
        t = tuple(candidate)
        if best is None or t < best:
            best = t
    assert best is not None
    return ChordDiagram(best)


def _walk(
    size: int, first: int | None, place: Callable | None, state
) -> Iterator[tuple[list[int], object]]:
    """Depth-first walk over the perfect matchings of [0, size), carrying
    state from each partial matching down to its extensions.

    Yields (partner, state) at each complete matching, in the order of
    matchings(). After chord (v, w) is written into partner (v is the
    smallest unmatched point, w > v), place(partner, v, w, state) returns
    the state of that subtree, or None to skip the subtree. The chord
    (0, first) is placed the same way when first is given. place=None
    keeps state unchanged and skips nothing. Chords are placed in
    ascending order of their smaller endpoint, so when (v, w) is placed
    every point below v is matched.

    The last two chords have no level of their own: once four points
    a < b < c < d are left, a is joined to b, c and d in turn, and the
    other two take the forced chord. Both chords still go through place,
    in that order.
    """
    if size % 2:
        raise DomainError("matchings need an even number of points")
    partner = [-1] * size
    left = size  # unmatched points
    if first is not None:
        if not 1 <= first < size:
            raise DomainError("first_partner must be in [1, size)")
        partner[0] = first
        partner[first] = 0
        left -= 2
        if place is not None:
            state = place(partner, 0, first, state)
            if state is None:
                return
    if left < 6:
        yield from _walk_rest(partner, place, state)
        return
    v = 0
    while partner[v] >= 0:
        v += 1
    # the open levels above the current one: their point, partner, state
    stack: list[tuple[int, int, object]] = []
    # the chord placed at this stack depth leaves the last four points
    tail_depth = left // 2 - 3
    depth = 0
    w = v
    while True:
        w += 1
        while w < size and partner[w] >= 0:
            w += 1
        if w == size:
            # every partner of v tried: close this level
            partner[v] = -1
            if not stack:
                return
            v, w, state = stack.pop()
            depth -= 1
            partner[w] = -1
            continue
        partner[v] = w
        partner[w] = v
        child = state
        if place is not None:
            child = place(partner, v, w, state)
            if child is None:
                partner[w] = -1
                continue
        if depth != tail_depth:
            u = v + 1
            while partner[u] >= 0:
                u += 1
            stack.append((v, w, state))
            depth += 1
            v, w, state = u, u, child
            continue
        # the last four points, a < b < c < d: a takes b, c, d in turn
        a = v + 1
        while partner[a] >= 0:
            a += 1
        b = a + 1
        while partner[b] >= 0:
            b += 1
        c = b + 1
        while partner[c] >= 0:
            c += 1
        d = c + 1
        while partner[d] >= 0:
            d += 1
        if place is None:
            # {a, b} {c, d}, then {a, c} {b, d}, then {a, d} {b, c}
            partner[a], partner[b], partner[c], partner[d] = b, a, d, c
            yield partner, child
            partner[a], partner[b], partner[c], partner[d] = c, d, a, b
            yield partner, child
            partner[a], partner[b], partner[c], partner[d] = d, c, b, a
            yield partner, child
        else:
            for x, y, z in ((b, c, d), (c, b, d), (d, b, c)):
                partner[a] = x
                partner[x] = a
                last = place(partner, a, x, child)
                if last is not None:
                    partner[y] = z
                    partner[z] = y
                    last = place(partner, y, z, last)
                    if last is not None:
                        yield partner, last
                    partner[y] = partner[z] = -1
                partner[x] = -1
        partner[a] = partner[b] = partner[c] = partner[d] = partner[w] = -1


def _walk_rest(partner: list[int], place: Callable | None, state):
    """_walk's recursive form, for the at most four points left at its root
    (too few for the loop's levels)."""
    size = len(partner)
    v = 0
    while v < size and partner[v] >= 0:
        v += 1
    if v == size:
        yield partner, state
        return
    for w in range(v + 1, size):
        if partner[w] >= 0:
            continue
        partner[v] = w
        partner[w] = v
        child = state if place is None else place(partner, v, w, state)
        if place is None or child is not None:
            yield from _walk_rest(partner, place, child)
        partner[w] = -1
    partner[v] = -1


def matchings(size: int, first_partner: int | None = None) -> Iterator[list[int]]:
    """Stream every perfect matching of [0, size) as a partner array.

    The yielded list is a shared buffer that is mutated between yields;
    callers that keep a matching must copy it. Matching order: the smallest
    unmatched point is joined to each larger unmatched point in ascending
    order, which makes the stream ascend lexicographically.

    Fixing first_partner restricts the stream to matchings with
    partner[0] == first_partner; the size-1 possible prefixes partition the
    full stream into independent sub-streams.
    """
    for partner, _ in _walk(size, first_partner, None, None):
        yield partner


def all_diagrams(n: int, first_partner: int | None = None) -> Iterator[ChordDiagram]:
    """All (2n-1)!! chord diagrams of order n, each exactly once."""
    if n < 1:
        raise DomainError("all_diagrams requires n >= 1")
    for partner in matchings(2 * n, first_partner):
        yield ChordDiagram(tuple(partner))


def crossings(diagram: ChordDiagram) -> int:
    """Number of chord pairs whose endpoints interleave on the circle."""
    chords = diagram.chords()
    count = 0
    for i, (a, b) in enumerate(chords):
        for c, d in chords[i + 1:]:
            # chords are sorted by first endpoint, so a < c always
            if c < b < d:
                count += 1
    return count


def is_strict(diagram: ChordDiagram) -> bool:
    """True iff no chord joins circle-adjacent points (which would double a
    circle edge)."""
    p = diagram.partner
    n2 = len(p)
    return all(p[v] != (v + 1) % n2 for v in range(n2))
