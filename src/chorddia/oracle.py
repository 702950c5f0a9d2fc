"""Brute-force ground truth over the perfect matchings of 2n points.

Nothing here is derived from the counting formulas, so agreement between
the two is a real check. Every path runs one walker, diagrams._walk, which
builds each matching chord by chord in the order of diagrams.all_diagrams
(chord (v, w) is placed when v is the smallest unmatched point) and lets a
hook carry state down the walk or skip a subtree. The walker places the
last two chords inline, without a level of their own, but the hook still
sees both, in order. A subtree is skipped only when no matching below it
can pass the path's test, so the results equal those of testing every one
of the (2n-1)!! matchings:

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
  adjacent. So both are read from the census below, which walks only the
  D_2n orbit minima, with the orbits' hook, and adds each minimum's orbit
  size |G| / |Stab| (orbit-stabilizer) in place of 1. Both ride along in
  the state: when chord (v, w) is placed, the matched points inside
  (v, w) all have partners below v, so each is one crossing with (v, w),
  and every crossing is counted once, when its later chord is placed; a
  diagram stays strict until a chord (v, v+1) or (0, 2n-1) is placed.
- fixed count: a chord (v, w) is skipped when g maps it, or maps a placed
  chord onto one of its points, inconsistently with what is placed;
  every matching reached is then fixed by g.

Every orbit path runs one function, _orbit_walk(group, step, leaf): the
orbits' hook, then an optional per-path step (the census's crossing count
and strict flag) on each placed chord, and at each orbit minimum a leaf
that maps its partner array, its stabilizer and the step's state to a
key, counted over all minima. orbit_count counts minima by stabilizer
size, representatives keeps each minimum's partner array, and the census
weights each key by its orbit size. With no step _orbit_walk passes the
orbits' hook to the walker as it is.

The census (_dihedral_census) is one walk of the D_2n orbit minima whose
step carries the crossing count and whether every chord so far is strict,
and whose leaf keys each minimum by k, the size of its non-identity
stabilizer, k_r, how many of those are rotations, and the step's state.
A key counted c times stands for c D_2n-orbits of |D| / (1 + k) diagrams
each, which gives the D_2n orbit summary, the crossing histogram, the
strict count and the identity group's summary (one orbit per diagram).
The rotations C_2n form a normal subgroup of D_2n, so the C_2n-orbits
inside one D_2n-orbit all have stabilizers of order 1 + k_r (conjugate
to the minimum's): the D_2n-orbit holds |D| (1 + k_r) / (|C| (1 + k)) of
them, of |C| / (1 + k_r) diagrams each, which gives the C_2n summary.
Every such division is asserted exact. crossing_distribution returns the
census's crossing histogram, strict_count its strict count, and verify
reads all five for each n up to its oracle bound.

The walk is split into the 2n-1 independent branches fixed by the partner
of point 0. Each branch returns its Counter of keys and the Counters add
up, so multi-process runs are deterministic.
"""

from __future__ import annotations

import os
from collections import Counter
from typing import TYPE_CHECKING

from .diagrams import ChordDiagram, _walk
from .errors import DomainError, Record, ResourceLimitError, exact_div
from .groups import GroupElement, PermGroup, make_standard_group

if TYPE_CHECKING:
    from .classic import CrossingPolynomial

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


def _check_points(n: int, group: PermGroup):
    if group.size != 2 * n:
        raise DomainError(f"group acts on {group.size} points, expected {2 * n}")


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


def _walk_branch(args) -> Counter:
    """Counter of leaf(partner, stabilizer, state) over the orbit minima
    in the branch with point 0 joined to first."""
    size, first, table, step, start, leaf = args
    if table is None:
        # the trivial group: every matching is a minimum
        return Counter(leaf(p, (), state) for p, state in _walk(size, first, step, start))
    orderly = _orderly_hook(table)
    if step is None:
        return Counter(leaf(p, tied, None) for p, tied in _walk(size, first, orderly, []))

    def place(partner, v, w, state):
        tied = orderly(partner, v, w, state[0])
        if tied is None:
            return None
        carried = step(partner, v, w, state[1])
        return None if carried is None else (tied, carried)

    return Counter(
        leaf(p, tied, carried) for p, (tied, carried) in _walk(size, first, place, ([], start))
    )


def _orbit_walk(group: PermGroup, step, leaf, start=None, threads: int = 1) -> Counter:
    """Counter of leaf(partner, stabilizer, state) over the minima of the
    group's orbits, stabilizer being the non-identity stabilizer's
    elements. step(partner, v, w, state), when given, runs after the
    orderly prune on each placed chord, carrying state from start and
    skipping the subtree where it returns None. Both step and leaf are
    module-level functions, so that a worker pool can pickle them."""
    size = group.size
    table = _position0_table(size, _element_arrays(group))
    tasks = [(size, first, table, step, start, leaf) for first in range(1, size)]
    total: Counter = Counter()
    # the branches come back in order, so keys keep the walk's ascending order
    for counts in _map_branches(_walk_branch, tasks, threads):
        total.update(counts)
    return total


def _stabilizer_size(partner, stabilizer, state) -> int:
    return len(stabilizer)


def _partner_tuple(partner, stabilizer, state) -> tuple[int, ...]:
    return tuple(partner)


def _census_key(partner, stabilizer, state) -> tuple[int, int, object]:
    """The non-identity stabilizer's size k, how many of its elements are
    rotations, and the census step's state. A dihedral element is a
    rotation iff it maps 1 to the successor of its image of 0; a
    reflection v -> s - v maps 1 to the predecessor, which differs on 4 or
    more points, and on 2 points the only non-identity element is the
    rotation by one."""
    size = len(partner)
    rotations = 0
    # a loop, not sum() of a generator: most minima have no stabilizer, and
    # the generator would cost one more object per leaf
    for img, _, _ in stabilizer:
        if img[1] == (img[0] + 1) % size:
            rotations += 1
    return len(stabilizer), rotations, state


def _orbit_sizes(group_order: int, by_stabilizer: Counter) -> dict[int, int]:
    """Orbit-size histogram from the minima counted by their non-identity
    stabilizer's size k: an orbit has |G| / (1 + k) elements, so distinct
    k give distinct orbit sizes."""
    return dict(sorted((group_order // (1 + k), count) for k, count in by_stabilizer.items()))


def orbit_count(n: int, group: PermGroup, threads: int | None = None) -> OrbitSummary:
    """Exact orbit count and orbit-size histogram by full enumeration."""
    _check_n(n)
    _check_points(n, group)
    threads = _resolve_threads(threads)
    leaves = _orbit_walk(group, None, _stabilizer_size, threads=threads)
    return OrbitSummary(
        n=n,
        group_order=group.order,
        orbit_count=sum(leaves.values()),
        orbit_size_histogram=_orbit_sizes(group.order, leaves),
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
    _check_points(n, group)
    # the walk ascends lexicographically, so the list comes out sorted
    return [ChordDiagram._unchecked(p) for p in _orbit_walk(group, None, _partner_tuple)]


def _census_step(partner, v, w, state: tuple[int, bool]) -> tuple[int, bool]:
    """Crossings so far, and whether no chord so far joins circle-adjacent
    points."""
    crossings, strict = state
    # every matched point strictly inside (v, w) has its partner below v
    inside = partner[v + 1:w]
    adjacent = w == v + 1 or (v == 0 and w == len(partner) - 1)
    return crossings + len(inside) - inside.count(-1), strict and not adjacent


def _dihedral_census(
    n: int, threads: int | None = None
) -> tuple[OrbitSummary, OrbitSummary, OrbitSummary, CrossingPolynomial, int]:
    """orbit_count(n, G) for the identity group, C_2n and D_2n, then
    crossing_distribution(n) and strict_count(n), from one walk of the
    D_2n orbit minima."""
    from .classic import CrossingPolynomial  # only the census builds one

    _check_n(n)
    threads = _resolve_threads(threads)
    group = make_standard_group("dihedral", 2 * n)
    leaves = _orbit_walk(group, _census_step, _census_key, (0, True), threads)
    # a key counted c times stands for c D_2n-orbits of |D| / (1 + k)
    # diagrams each; C_2n is normal in D_2n, so the C_2n-orbits inside one
    # of them all have 1 + k_r stabilizer elements, |C| / (1 + k_r) diagrams
    dihedral_sizes: Counter = Counter()
    cyclic_sizes: Counter = Counter()
    coeffs = [0] * (n * (n - 1) // 2 + 1)
    strict = 0
    for (k, k_r, (crossings, is_strict)), count in leaves.items():
        size = exact_div(group.order, 1 + k, "dihedral orbit size")
        dihedral_sizes[size] += count
        cyclic_size = exact_div(2 * n, 1 + k_r, "cyclic orbit size")
        per_orbit = exact_div(size, cyclic_size, "cyclic orbits per dihedral orbit")
        cyclic_sizes[cyclic_size] += count * per_orbit
        coeffs[crossings] += count * size
        if is_strict:
            strict += count * size
    total = sum(coeffs)

    def summary(order: int, sizes: Counter) -> OrbitSummary:
        return OrbitSummary(
            n=n,
            group_order=order,
            orbit_count=sum(sizes.values()),
            orbit_size_histogram=dict(sorted(sizes.items())),
        )

    return (
        summary(1, Counter({1: total})),
        summary(2 * n, cyclic_sizes),
        summary(group.order, dihedral_sizes),
        CrossingPolynomial(n=n, coefficients=tuple(coeffs)),
        strict,
    )


def crossing_distribution(n: int, threads: int | None = None) -> CrossingPolynomial:
    """Histogram of diagrams by crossing number, by direct counting."""
    return _dihedral_census(n, threads)[3]


def strict_count(n: int) -> int:
    """Number of diagrams with no chord joining circle-adjacent points, by
    direct counting."""
    return _dihedral_census(n)[4]
