"""Chord diagrams: representation, symmetry action, canonical forms,
exhaustive enumeration, crossing counts, strictness.

A diagram on 2n points is stored as its partner array: partner[v] is the
point joined to v by a chord. The circle itself is implicit in the cyclic
order of the points.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterator, Sequence

from .errors import DomainError, Record, _is_int, _require_int
from .groups import GroupElement, PermGroup


class ChordDiagram(Record):
    """A fixed-point-free involution on [0, 2n): a perfect matching of the
    circle points by chords."""

    __slots__ = ("partner",)
    partner: tuple[int, ...]

    def _check(self):
        partner = self.partner
        if not {int}.issuperset(map(type, partner)):
            raise DomainError("partner array entries must be ints")
        n2 = len(partner)
        if n2 % 2:
            raise DomainError("diagram needs an even number of points")
        for v in range(n2):
            w = partner[v]
            if not 0 <= w < n2 or w == v or partner[w] != v:
                raise DomainError("partner array is not a fixed-point-free involution")

    @classmethod
    def from_chords(cls, chords: Sequence[tuple[int, int]], size: int | None = None) -> "ChordDiagram":
        """Build from 0-based endpoint pairs."""
        if size is None:
            size = 2 * len(chords)
        else:
            _require_int(size, 0, f"size must be an int >= 0, got {size!r}")
        partner = [-1] * size
        for a, b in chords:
            if not (_is_int(a) and _is_int(b)):
                raise DomainError(f"chord ({a!r}, {b!r}) needs int endpoints")
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
            n = obj["n"]
            chords = [(a, b) for a, b in obj["chords"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed chord list object: {exc}") from exc
        message = "chord list object needs an int n >= 0 and int endpoints"
        size = 2 * _require_int(n, 0, message)
        if not all(_is_int(v) for chord in chords for v in chord):
            raise DomainError(message)
        return cls.from_chords([(a - 1, b - 1) for a, b in chords], size=size)

    def __str__(self):
        return " ".join(f"({a + 1},{b + 1})" for a, b in self.chords())


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


# (images, inverse-images) per element, the form the hot loops consume
_ElementArrays = tuple[tuple[int, ...], tuple[int, ...]]
# an element still compared with p: (images, inverse, r), where g.p and p
# are equal below position r
_Tied = tuple[tuple[int, ...], tuple[int, ...], int]
# table[a][b]: (least image, elements reaching it) or None; see _position0_table
_Table = list[list[tuple[int, list[_Tied]] | None]]


def _position0_table(size: int, elems: list[_ElementArrays]) -> _Table | None:
    """Position-0 table of the orbit walk over the non-identity elements,
    or None when there are none.

    Element g compares g.p with p at position 0 exactly when the chord
    {a, b} with g(a) = 0 is placed, and g.p[0] = g(b) then. So
    table[a][b] (and table[b][a], the same entry) holds the least g(b)
    over the elements with g(a) = 0 or g(b) = 0 (with a and b swapped),
    and the elements that reach it. Those tie with p at position 0 when
    it equals p[0], so each is stored ready to compare at position 1.
    """
    if not elems:
        return None
    table: _Table = [[None] * size for _ in range(size)]
    for img, inv in elems:
        elem = (img, inv, 1)
        a = inv[0]
        row = table[a]
        for b in range(size):
            if b == a:
                continue
            image = img[b]
            entry = row[b]
            if entry is None or image < entry[0]:
                entry = row[b] = table[b][a] = (image, [])
            if image == entry[0]:
                entry[1].append(elem)
    return table


def _position0_settle(table: _Table, p0: int) -> list[list[list[_Tied] | None]]:
    """The position-0 settle of every chord once p[0] = p0, the one place
    that compares a table entry with p[0]: None when each element that
    the chord settles has a larger g.p (they drop out), an empty list
    when one has a smaller g.p (no matching below is a minimum), else the
    elements that tie and go on at position 1."""
    return [
        [None if e is None or e[0] > p0 else e[1] if e[0] == p0 else [] for e in row]
        for row in table
    ]


def _orderly_advance(partner, tied):
    """Advance the comparison of g.p with p for each element in tied, as
    far as the placed chords determine both, dropping those whose image
    is larger. Position r is determined once p[r] and p[inv[r]] are
    placed, since g.p[r] = g(p[inv[r]]). Returns None once some g.p is
    smaller, else the elements kept."""
    size = len(partner)
    kept = []
    for img, inv, r in tied:
        while r < size:
            a = partner[r]
            x = partner[inv[r]]
            if a < 0 or x < 0:
                kept.append((img, inv, r))
                break
            b = img[x]
            if b != a:
                if b < a:
                    return None
                break
            r += 1
        else:
            kept.append((img, inv, r))  # equal everywhere: it fixes p
    return kept


def _orderly_finish(partner, tied):
    """_orderly_advance once every point is matched: run each comparison
    in tied to its end. Returns None once some g.p is smaller, else the
    elements that fix p."""
    size = len(partner)
    kept = []
    for img, inv, r in tied:
        while r < size:
            a = partner[r]
            b = img[partner[inv[r]]]
            if b != a:
                if b < a:
                    return None
                break
            r += 1
        else:
            kept.append((img, inv, r))
    return kept


def _walk(
    size: int, first: int | None, place: Callable | None, state, table: _Table | None = None
) -> Iterator[tuple]:
    """Depth-first walk over the perfect matchings of [0, size), carrying
    state from each partial matching down to its extensions.

    Yields (partner, stabilizer, state) at each complete matching, in the
    order of matchings(); both lists are the walk's own, not to be
    mutated, and partner changes between yields. After chord (v, w) is
    written into partner (v is the smallest unmatched point, w > v),
    place(partner, v, w, state) returns the state of that subtree, or
    None to skip the subtree. With first given, only the matchings with
    chord (0, first) are walked. place=None keeps state unchanged and
    skips nothing. Chords are placed in ascending order of their smaller
    endpoint, so when (v, w) is placed every point below v is matched.

    With no table the stabilizer is always the same empty list. With a
    position-0 table (_position0_table) the walk keeps only the matchings
    that are the least in their orbit under the table's group (the
    orderly test of the oracle module's docstring), and the stabilizer is
    the non-identity elements that fix the matching, each as (images,
    inverse, size). The root chord fixes p[0], and with it
    _position0_settle for the whole walk below it. Each chord is looked
    up there before it is written, and dropped when some g.p is already
    smaller; the elements that tie join those compared past position 0,
    and _orderly_advance advances all of those, whenever there are any.
    Only then does place see the chord.

    The last two chords have no level of their own: once four points
    a < b < c < d are left, a is joined to b, c and d in turn, and the
    other two take the forced chord. With a table both chords are looked
    up, and _orderly_finish compares the complete matching once, before
    place sees them, in order, each with only the chords before it.
    """
    if size % 2:
        raise DomainError("matchings need an even number of points")
    message = "first_partner must be in [1, size)"
    if first is not None and _require_int(first, 1, message) >= size:
        raise DomainError(message)
    partner = [-1] * size
    tied: list[_Tied] = []  # with no table, every leaf's stabilizer
    if not size:
        yield partner, tied, state
        return
    # the root level joins point 0 to each point below end in turn
    root_end = end = size if first is None else first + 1
    v = 0
    w = 0 if first is None else first - 1
    # the chord placed at tail_depth leaves the last four points; on 2 or 4
    # points every chord has a level, and the one at last_depth is the last
    tail_depth = size // 2 - 3
    last_depth = size // 2 - 1
    # the open levels above the current one: their point, partner, state
    # and the elements compared past position 0
    stack: list[tuple[int, int, object, list[_Tied]]] = []
    depth = 0
    child_tied = tied
    while True:
        w += 1
        while w < end and partner[w] >= 0:
            w += 1
        if w == end:
            # every partner of v tried: close this level
            partner[v] = -1
            if not stack:
                return
            v, w, state, tied = stack.pop()
            depth -= 1
            partner[w] = -1
            if not stack:
                end = root_end
            continue
        partner[v] = w
        if table is not None:
            child_tied = tied
            if not v:
                settle = _position0_settle(table, w)
            ties = settle[v][w]
            if ties is not None:
                if not ties:
                    continue  # some g.p is already smaller: w stays unwritten
                child_tied = tied + ties
            partner[w] = v
            if child_tied:
                child_tied = _orderly_advance(partner, child_tied)
                if child_tied is None:
                    partner[w] = -1
                    continue
        else:
            partner[w] = v
        child = state
        if place is not None:
            child = place(partner, v, w, state)
            if child is None:
                partner[w] = -1
                continue
        if depth != tail_depth:
            if depth == last_depth:
                yield partner, child_tied, child
                partner[w] = -1
                continue
            stack.append((v, w, state, tied))
            depth += 1
            end = size
            u = v + 1
            while partner[u] >= 0:
                u += 1
            v, w, state, tied = u, u, child, child_tied
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
        if place is None and table is None:
            # {a, b} {c, d}, then {a, c} {b, d}, then {a, d} {b, c}
            partner[a], partner[b], partner[c], partner[d] = b, a, d, c
            yield partner, child_tied, child
            partner[a], partner[b], partner[c], partner[d] = c, d, a, b
            yield partner, child_tied, child
            partner[a], partner[b], partner[c], partner[d] = d, c, b, a
            yield partner, child_tied, child
            partner[a] = partner[b] = partner[c] = partner[d] = partner[w] = -1
            continue
        for x, y, z in ((b, c, d), (c, b, d), (d, b, c)):
            last_tied, last = child_tied, child
            if table is not None:
                # both chords are looked up, and the complete matching is
                # compared once, before place sees either of them
                ties = settle[a][x]
                if ties is not None:
                    if not ties:
                        continue
                    last_tied = last_tied + ties
                ties = settle[y][z]
                if ties is not None:
                    if not ties:
                        continue
                    last_tied = last_tied + ties
                if last_tied:
                    partner[a], partner[x], partner[y], partner[z] = x, a, z, y
                    last_tied = _orderly_finish(partner, last_tied)
                    if last_tied is None:
                        continue
            partner[a] = x
            partner[x] = a
            partner[y] = partner[z] = -1
            if place is not None:
                last = place(partner, a, x, last)
                if last is None:
                    continue
            partner[y] = z
            partner[z] = y
            if place is not None:
                last = place(partner, y, z, last)
                if last is None:
                    continue
            yield partner, last_tied, last
        partner[a] = partner[b] = partner[c] = partner[d] = partner[w] = -1


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
    return map(itemgetter(0), _walk(size, first_partner, None, None))


def all_diagrams(n: int, first_partner: int | None = None) -> Iterator[ChordDiagram]:
    """All (2n-1)!! chord diagrams of order n, each exactly once."""
    _require_int(n, 1, "all_diagrams requires n >= 1")
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
