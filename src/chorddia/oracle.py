"""Brute-force ground truth over the perfect matchings of 2n points.

Nothing here is derived from the counting formulas, so agreement between
the two is a real check. Every path runs one walker, diagrams._walk, which
builds each matching chord by chord in the order of diagrams.all_diagrams
(chord (v, w) is placed when v is the smallest unmatched point) and lets a
hook carry state down the walk or skip a subtree. A subtree is skipped
only when no matching below it can pass the path's test, so the results
equal those of testing every one of the (2n-1)!! matchings:

- orbits: a diagram is counted iff it is the lexicographic minimum of its
  orbit (no global dedup set). For each non-identity g the hook compares
  the image g.p with p position by position, as far as the placed chords
  determine both. Once g.p is larger at some position, no completion can
  make g.p smaller, so g is dropped; once g.p is smaller, no completion
  is a minimum, so the subtree is skipped. At a complete matching the
  elements still compared equal at every position are exactly the
  non-identity stabilizer.
  Position 0 is settled from a table built once per call. p[0] is placed
  by the first chord, and g.p[0] = g(b) for the chord {a, b} with
  g(a) = 0, so every g compares position 0 exactly once, when that chord
  is placed, against the same p[0]. For each chord the table holds the
  least g(b) over the elements it settles and the elements reaching it.
  If the least is below p[0], some g.p is smaller, which is just when the
  per-element comparison skips; if it is above, every such g is larger
  and dropped; if equal, the elements reaching it tie and go on, one by
  one, from position 1, and the rest are dropped. So the decisions, and
  the elements left at each leaf, are those of comparing every element
  from position 0, and the hook's state holds only the few elements past
  position 0 (the others wait there implicitly).
- crossings and strict: both are constant on the orbits of the dihedral
  group D_2n (order 4n for n >= 2), since a rotation or reflection of the
  circle keeps interleaved chords interleaved and circle-adjacent points
  adjacent. So these paths walk only the D_2n orbit minima, with the
  orbits' hook, and add each minimum's orbit size |G| / |Stab| (orbit-
  stabilizer) in place of 1. Crossings ride along in the state: when
  chord (v, w) is placed, the matched points inside (v, w) all have
  partners below v, so each is one crossing with (v, w); every crossing
  is counted once, when its later chord is placed. Strict: a chord
  (v, v+1) or (0, 2n-1) is never placed; strict diagrams are a union of
  orbits, so that prune and the orbits' prune together reach exactly the
  minima of the strict orbits.
- fixed count: a chord (v, w) is skipped when g maps it, or maps a placed
  chord onto one of its points, inconsistently with what is placed;
  every matching reached is then fixed by g.

The walk can be split into the 2n-1 independent branches fixed by the
partner of point 0; branch results merge by plain addition, so
multi-process runs are deterministic.
"""

from __future__ import annotations

import os
from collections import Counter

from .classic import CrossingPolynomial
from .diagrams import ChordDiagram, _walk
from .errors import DomainError, Record, ResourceLimitError
from .groups import GroupElement, PermGroup, make_standard_group

DEFAULT_CAP = 8
HARD_CAP = 9
CAP_ENV_VAR = "CHORDDIA_ORACLE_CAP"

# (images, inverse-images) per element, the form the hot loops consume
_ElementArrays = tuple[tuple[int, ...], tuple[int, ...]]


class OrbitSummary(Record):
    __slots__ = ("n", "group_order", "orbit_count", "orbit_size_histogram")
    n: int
    group_order: int
    orbit_count: int
    orbit_size_histogram: dict[int, int]

    def __init__(
        self, n: int, group_order: int, orbit_count: int, orbit_size_histogram: dict[int, int]
    ):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "group_order", group_order)
        object.__setattr__(self, "orbit_count", orbit_count)
        object.__setattr__(self, "orbit_size_histogram", orbit_size_histogram)


def enumeration_cap() -> int:
    """Current cap on the oracle's n, from the environment or the default."""
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise DomainError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}")
    if cap < 1:
        raise DomainError(f"{CAP_ENV_VAR} must be at least 1, got {cap}")
    return min(cap, HARD_CAP)


def _check_n(n: int):
    if n < 1:
        raise DomainError("oracle requires n >= 1")
    cap = enumeration_cap()
    if n > cap:
        raise ResourceLimitError(
            f"oracle capped at n <= {cap} ({CAP_ENV_VAR} raises it, hard max {HARD_CAP})"
        )


def _element_arrays(group: PermGroup) -> list[_ElementArrays]:
    """Non-identity elements as (images, inverse) pairs."""
    out = []
    for g in group.elements:
        if not g.is_identity():
            out.append((g.images, g.inverse().images))
    return out


# table[a][b]: (least image, elements reaching it) or None; see _position0_table
_Table = list[list[tuple[int, list] | None]]


def _position0_table(size: int, elems: list[_ElementArrays]) -> _Table | None:
    """Position-0 table of the orbit walk, or None for the trivial group.

    Element g compares g.p with p at position 0 exactly when the chord
    {a, b} with g(a) = 0 is placed, and g.p[0] = g(b) then. So
    table[a][b] (and table[b][a], the same entry) holds the least g(b)
    over the elements with g(a) = 0 or g(b) = 0 (with a and b swapped),
    and the elements that reach it, each as (images, inverse, 0).
    """
    if not elems:
        return None
    table: _Table = [[None] * size for _ in range(size)]
    for img, inv in elems:
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
                entry[1].append((img, inv, 0))
    return table


def _orderly_advance(partner, v, w, tied):
    """Advance the comparison of g.p with p for each element in tied,
    dropping those whose image is larger and returning None once one is
    smaller.

    tied holds (images, inverse, r) with g.p and p equal below position r;
    the comparison waits at r until p[r] and p[inverse[r]] are placed.
    """
    size = len(partner)
    kept = []
    for elem in tied:
        img, inv, r = elem
        if r != v and r != w and inv[r] != v and inv[r] != w:
            kept.append(elem)  # neither entry that r waits for was placed
            continue
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
            kept.append((img, inv, r))
    return kept


def _orderly_hook(table: _Table):
    """Walker hook of the orbit paths over one position-0 table. Its state
    is the list of elements past position 0 that still compare equal; the
    elements still waiting at position 0 are implicit (those whose chord
    {g^-1(0), .} is not placed yet)."""

    def place(partner, v, w, carried):
        entry = table[v][w]
        if entry is not None and entry[0] <= partner[0]:
            if entry[0] < partner[0]:
                return None  # some g.p is already smaller
            # the elements that tie at position 0 go on (they are stored at
            # r = 0, so the advance passes the tie and moves to position 1);
            # the rest of those this chord settles are larger and drop out
            return _orderly_advance(partner, v, w, carried + entry[1])
        if not carried:
            return carried  # nothing to compare: the state is unchanged
        return _orderly_advance(partner, v, w, carried)

    return place


def _orderly_walk(size: int, first: int | None, table: _Table | None):
    """(partner, non-identity stabilizer) for each orbit minimum, ascending."""
    if table is None:
        # the trivial group: every matching is a minimum, so walk hook-free
        return _walk(size, first, None, ())
    return _walk(size, first, _orderly_hook(table), [])


def _orbit_branch(args) -> tuple[int, dict[int, int]]:
    size, first, table, group_order = args
    # leaves by the size of their non-identity stabilizer; an orbit has
    # |G| / |Stab| elements, so distinct sizes give distinct orbit sizes
    leaves = Counter(len(stabilizer) for _, stabilizer in _orderly_walk(size, first, table))
    histogram = {group_order // (1 + k): count for k, count in leaves.items()}
    return sum(leaves.values()), histogram


def _resolve_threads(threads: int | None) -> int:
    if threads is None:
        threads = 1
    if threads < 1:
        raise DomainError("threads must be >= 1")
    return threads


def _map_branches(worker, tasks, threads: int):
    if threads == 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    import multiprocessing  # about 10 ms to import, so only for a pool

    with multiprocessing.Pool(min(threads, len(tasks))) as pool:
        # pruning makes branches unequal, so hand them out one at a time
        return pool.map(worker, tasks, chunksize=1)


def orbit_count(n: int, group: PermGroup, threads: int | None = None) -> OrbitSummary:
    """Exact orbit count and orbit-size histogram by full enumeration."""
    _check_n(n)
    size = 2 * n
    if group.size != size:
        raise DomainError(f"group acts on {group.size} points, expected {size}")
    threads = _resolve_threads(threads)
    table = _position0_table(size, _element_arrays(group))
    tasks = [(size, first, table, group.order) for first in range(1, size)]
    results = _map_branches(_orbit_branch, tasks, threads)
    total = 0
    histogram: dict[int, int] = {}
    for count, hist in results:
        total += count
        for orbit_size, k in hist.items():
            histogram[orbit_size] = histogram.get(orbit_size, 0) + k
    return OrbitSummary(
        n=n,
        group_order=group.order,
        orbit_count=total,
        orbit_size_histogram=dict(sorted(histogram.items())),
    )


def fixed_diagram_count(n: int, g: GroupElement) -> int:
    """Number of diagrams mapped to themselves by g."""
    _check_n(n)
    size = 2 * n
    if g.size != size:
        raise DomainError(f"element acts on {g.size} points, expected {size}")
    img = g.images
    inv = g.inverse().images

    def place(partner, v, w, state):
        # g maps chord (e, partner[e]) onto (img[e], img[partner[e]]) and
        # the chord at inv[e] onto one at e; each must agree where placed
        for e in (v, w):
            x = partner[img[e]]
            if x >= 0 and x != img[partner[e]]:
                return None
            y = partner[inv[e]]
            if y >= 0 and img[y] != partner[e]:
                return None
        return state

    return sum(1 for _ in _walk(size, None, place, True))


def representatives(n: int, group: PermGroup) -> list[ChordDiagram]:
    """One canonical representative per orbit, sorted by partner array."""
    _check_n(n)
    size = 2 * n
    if group.size != size:
        raise DomainError(f"group acts on {group.size} points, expected {size}")
    table = _position0_table(size, _element_arrays(group))
    # the walk ascends lexicographically, so the list comes out sorted
    return [ChordDiagram(tuple(partner)) for partner, _ in _orderly_walk(size, None, table)]


def _dihedral_start(size: int) -> tuple[int, _Table]:
    """Order of D_2n on size points and its position-0 table."""
    group = make_standard_group("dihedral", size)
    table = _position0_table(size, _element_arrays(group))
    assert table is not None  # D_2n is never trivial on 2n >= 2 points
    return group.order, table


def _crossing_branch(args) -> list[int]:
    size, first, group_order, table = args
    n = size // 2
    orderly = _orderly_hook(table)

    def place(partner, v, w, state):
        tied = orderly(partner, v, w, state[0])
        if tied is None:
            return None
        # every matched point strictly inside (v, w) has its partner below v
        inside = partner[v + 1:w]
        return tied, state[1] + len(inside) - inside.count(-1)

    counts = [0] * (n * (n - 1) // 2 + 1)
    for _, (stabilizer, crossings) in _walk(size, first, place, ([], 0)):
        counts[crossings] += group_order // (1 + len(stabilizer))
    return counts


def crossing_distribution(n: int, threads: int | None = None) -> CrossingPolynomial:
    """Histogram of diagrams by crossing number, by direct counting."""
    _check_n(n)
    size = 2 * n
    threads = _resolve_threads(threads)
    group_order, table = _dihedral_start(size)
    tasks = [(size, first, group_order, table) for first in range(1, size)]
    results = _map_branches(_crossing_branch, tasks, threads)
    coeffs = [sum(col) for col in zip(*results)]
    return CrossingPolynomial(n=n, coefficients=tuple(coeffs))


def strict_count(n: int) -> int:
    """Number of diagrams with no chord joining circle-adjacent points."""
    _check_n(n)
    size = 2 * n
    group_order, table = _dihedral_start(size)
    orderly = _orderly_hook(table)

    def place(partner, v, w, tied):
        if w == v + 1 or (v == 0 and w == size - 1):
            return None
        return orderly(partner, v, w, tied)

    return sum(
        group_order // (1 + len(stabilizer))
        for _, stabilizer in _walk(size, None, place, [])
    )
