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


def _orderly_place(partner, v, w, tied):
    """Walker hook of the orbit paths: advance the comparison of g.p with
    p for each element still tied, dropping those whose image is larger
    and skipping the subtree once one is smaller.

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


def _orderly_walk(size: int, first: int | None, elems: list[_ElementArrays]):
    """(partner, non-identity stabilizer) for each orbit minimum, ascending."""
    if not elems:
        # the trivial group: every matching is a minimum, so walk hook-free
        return _walk(size, first, None, ())
    return _walk(size, first, _orderly_place, [(img, inv, 0) for img, inv in elems])


def _orbit_branch(args) -> tuple[int, dict[int, int]]:
    size, first, elems, group_order = args
    count = 0
    histogram: dict[int, int] = {}
    for _, stabilizer in _orderly_walk(size, first, elems):
        count += 1
        orbit_size = group_order // (1 + len(stabilizer))
        histogram[orbit_size] = histogram.get(orbit_size, 0) + 1
    return count, histogram


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
    elems = _element_arrays(group)
    tasks = [(size, first, elems, group.order) for first in range(1, size)]
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
    # the walk ascends lexicographically, so the list comes out sorted
    return [
        ChordDiagram(tuple(partner))
        for partner, _ in _orderly_walk(size, None, _element_arrays(group))
    ]


def _dihedral_start(size: int) -> tuple[int, list]:
    """Order of D_2n on size points and the orbits' initial hook state."""
    group = make_standard_group("dihedral", size)
    return group.order, [(img, inv, 0) for img, inv in _element_arrays(group)]


def _crossing_orbit_place(partner, v, w, state):
    tied = _orderly_place(partner, v, w, state[0])
    if tied is None:
        return None
    # every matched point strictly inside (v, w) has its partner below v
    inside = partner[v + 1:w]
    return tied, state[1] + len(inside) - inside.count(-1)


def _crossing_branch(args) -> list[int]:
    size, first, group_order, tied = args
    n = size // 2
    counts = [0] * (n * (n - 1) // 2 + 1)
    for _, (stabilizer, crossings) in _walk(size, first, _crossing_orbit_place, (tied, 0)):
        counts[crossings] += group_order // (1 + len(stabilizer))
    return counts


def crossing_distribution(n: int, threads: int | None = None) -> CrossingPolynomial:
    """Histogram of diagrams by crossing number, by direct counting."""
    _check_n(n)
    size = 2 * n
    threads = _resolve_threads(threads)
    group_order, tied = _dihedral_start(size)
    tasks = [(size, first, group_order, tied) for first in range(1, size)]
    results = _map_branches(_crossing_branch, tasks, threads)
    coeffs = [sum(col) for col in zip(*results)]
    return CrossingPolynomial(n=n, coefficients=tuple(coeffs))


def _strict_orbit_place(partner, v, w, tied):
    if w == v + 1 or (v == 0 and w == len(partner) - 1):
        return None
    return _orderly_place(partner, v, w, tied)


def strict_count(n: int) -> int:
    """Number of diagrams with no chord joining circle-adjacent points."""
    _check_n(n)
    size = 2 * n
    group_order, tied = _dihedral_start(size)
    return sum(
        group_order // (1 + len(stabilizer))
        for _, stabilizer in _walk(size, None, _strict_orbit_place, tied)
    )
