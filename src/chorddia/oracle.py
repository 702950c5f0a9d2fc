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
  orbit (no global dedup set). The walker makes this orderly test itself
  when it is given the group's position-0 table: for each non-identity g
  it compares the image g.p with p position by position, as far as the
  placed chords determine both. Once g.p is larger at some position, no
  completion can make g.p smaller, so g is dropped; once g.p is smaller,
  no completion is a minimum, so the subtree is skipped. At a complete
  matching the elements still compared equal at every position are
  exactly the non-identity stabilizer.
  Position 0 is settled per chord. p[0] is placed by the first chord, and
  g.p[0] = g(b) for the chord {a, b} with g(a) = 0, so every g compares
  position 0 exactly once, when that chord is placed, against the same
  p[0]. For each chord the table (diagrams._position0_table) holds the
  least g(b) over the elements it settles and the elements reaching it,
  and diagrams._position0_settle compares each least with p[0] once per
  branch. If the least is below p[0], some g.p is smaller, which is just
  when the per-element comparison skips, so the chord is skipped before
  it is written; if it is above, every such g is larger and dropped; if
  equal, the elements reaching it tie and go on from position 1, and the
  rest are dropped. So the decisions, and the elements left at each leaf,
  are those of comparing every element from position 0, and the walk
  carries only the few elements past position 0 (the others wait there
  implicitly): diagrams._orderly_advance advances each of those at every
  chord, as far as the placed chords determine both sides. The last two
  chords are both settled at position 0 before either is compared
  further, and diagrams._orderly_finish then compares the complete
  matching once.
- crossings and strict: both are constant on the orbits of the dihedral
  group D_2n (order 4n for n >= 2), since a rotation or reflection of the
  circle keeps interleaved chords interleaved and neighbours neighbours.
  So both are read from the census below, which walks only the D_2n orbit
  minima and adds each minimum's orbit size |G| / |Stab| (orbit-stabilizer)
  in place of 1. The step carries the crossings: when chord (v, w) is
  placed, the matched points inside it all have partners below v, so each
  is one crossing with (v, w), counted when its later chord is placed.
  Strictness needs no state. Rotation by -v maps a chord {v, v+1 mod 2n}
  to {0, 1}, and p[0] >= 1 in every matching, so in a group containing
  the rotations an orbit's minimum has p[0] == 1 iff some diagram of the
  orbit is non-strict. Between C_2n and D_2n strictness is constant on
  the orbits, so a minimum is strict iff p[0] != 1.
- fixed count: a chord (v, w) is skipped when g maps it, or maps a placed
  chord onto one of its points, inconsistently with what is placed;
  every matching reached is then fixed by g. The identity fixes every
  matching, so its count walks with no hook.

Every orbit path runs one function, _orbit_walk(group, step, keys): the
walker with the group's table and, as its hook, an optional per-path
step (the census's crossing count), which sees each chord the orderly
test keeps. The walk yields each orbit minimum as (partner, stabilizer,
state), and keys maps that stream to the keys counted over all minima.
The trivial group has no table: its walk yields every matching, in the
same shape, with an empty stabilizer. orbit_count counts minima by
stabilizer size through C callables (no Python frame per minimum); the
census keys each minimum with _census_key and weights each key by its
orbit size. A listing needs the minima themselves, in order and one at a
time, so _minima streams their partner arrays from one serial walk, with
no Counter: representatives copies each one, and enumerate writes each
one's line, or SVG file, as it comes.

The census (_dihedral_census) is one walk of the D_2n orbit minima whose
step carries the crossing count, and whose leaf keys each minimum by k,
the size of its non-identity stabilizer, k_r, how many of those are
rotations, its crossing count and whether it is strict (partner[0] != 1).
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

orbit_count walks a relabelled copy σGσ⁻¹ of the group (_relabelled).
Any relabelling σ gives the same summary: p -> σ.p maps each G-orbit
onto a σGσ⁻¹-orbit, and the stabilizer of σ.p is σ Stab(p) σ⁻¹, of the
same order. The order σ only decides how early the orderly test settles.
A comparison settles once the points it reads are matched, and the walk
matches points in ascending label order. On circle labels a reflection
v -> c - v pairs small labels with large ones, so its comparison waits
for the last chords: on D_16 some element still ties with p at 81,590
complete matchings of the branch with p[0] = 1, and _orderly_finish
rejects 68,864 of the 103,589 complete matchings that it compares. So σ
lists the points orbit by orbit of the stabilizer of point 0
(_point_order), each orbit ascending and the orbits by their least
point. For D_2n that is 0, 1, 2n-1, 2, 2n-2, ..., n, each point next to
its mirror image, and on D_16 _orderly_finish then compares 50,130
matchings and rejects 24,050. Where those orbits are already consecutive
(C_2n, the identity group, a trivial stabilizer, S_4 on points 0..3) σ
is the identity and the group is walked as it is. The rule is read off
the group, not a fixed zigzag: at n = 8 the zigzag forced on S_4 on
points 0..3 walked 15-20 % slower, and on the rotations by 2 no faster.
The census and _minima stay on circle labels: the census's crossing step
reads partner[v+1:w], the points inside a chord on the circle, and
_census_key tests rotations and strictness by label, and a listing's
minima are the least partner arrays on circle labels.

A counting walk is split into the 2n-1 independent branches fixed by the
partner of point 0. Each branch returns its Counter of keys and the
Counters add up, so multi-process runs are deterministic.
"""

from __future__ import annotations

import os
from collections import Counter
from itertools import starmap
from operator import itemgetter
from typing import TYPE_CHECKING, Iterator, Mapping

from .diagrams import ChordDiagram, _ElementArrays, _position0_table, _walk
from .errors import DomainError, Record, ResourceLimitError, _require_int, exact_div
from .groups import GroupElement, PermGroup, make_standard_group

if TYPE_CHECKING:
    from .classic import CrossingPolynomial

DEFAULT_CAP = 8
HARD_CAP = 9
CAP_ENV_VAR = "CHORDDIA_ORACLE_CAP"

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
    _require_int(cap, 1, f"{CAP_ENV_VAR} must be at least 1, got {cap}")
    return min(cap, HARD_CAP)


def _check_n(n: int):
    _require_int(n, 1, "oracle requires n >= 1")
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


def _point_order(group: PermGroup) -> list[int]:
    """The points orbit by orbit of the stabilizer of point 0, each orbit
    ascending and the orbits by their least point: 0, 1, 2n-1, 2, ..., n
    for D_2n (module docstring)."""
    stabilizer = [g.images for g in group.elements if g.images[0] == 0]
    order: list[int] = []
    seen = [False] * group.size
    for p in range(group.size):
        if not seen[p]:
            # a point's orbit under a group is its set of images
            for q in sorted({p, *map(itemgetter(p), stabilizer)}):
                if not seen[q]:
                    seen[q] = True
                    order.append(q)
    return order


def _relabelled(group: PermGroup) -> PermGroup:
    """σGσ⁻¹ for the σ that takes the point order[i] of _point_order to i,
    or the group itself when that order is already 0, 1, ..., size-1."""
    order = _point_order(group)
    if order == list(range(group.size)):
        return group
    sigma = [0] * group.size
    for i, p in enumerate(order):
        sigma[p] = i
    rows = [g.images for g in group.elements]
    elements = [GroupElement._unchecked(tuple([sigma[img[p]] for p in order])) for img in rows]
    return PermGroup._unchecked(group.size, tuple(elements))


def _resolve_threads(threads: int | None) -> int:
    return 1 if threads is None else _require_int(threads, 1, "threads must be >= 1")


def _map_branches(worker, tasks, threads: int):
    if threads == 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    import multiprocessing  # about 10 ms to import, so only for a pool

    with multiprocessing.Pool(min(threads, len(tasks))) as pool:
        # pruning makes branches unequal, so hand them out one at a time
        return pool.map(worker, tasks, chunksize=1)


def _walk_branch(args) -> Counter:
    """Counter of the keys that keys(walk) makes of the orbit minima in
    the branch with point 0 joined to first, the walk yielding each as
    (partner, stabilizer, state); with table None (the trivial group)
    every matching is a minimum, with an empty stabilizer."""
    size, first, table, step, start, keys = args
    return Counter(keys(_walk(size, first, step, start, table)))


def _orbit_walk(group: PermGroup, step, keys, start=None, threads: int = 1) -> Counter:
    """Counter of the keys that keys(walk) makes of the minima of the
    group's orbits, the walk yielding each as (partner, stabilizer,
    state), stabilizer being the non-identity stabilizer's elements.
    step(partner, v, w, state), when given, is the walker's hook: it sees
    each chord that the orderly test keeps (the last two after their
    joint comparison), carrying state from start and skipping the subtree
    where it returns None. Both step and keys are module-level functions,
    so that a worker pool can pickle them."""
    size = group.size
    table = _position0_table(size, _element_arrays(group))
    tasks = [(size, first, table, step, start, keys) for first in range(1, size)]
    total: Counter = Counter()
    for counts in _map_branches(_walk_branch, tasks, threads):
        total.update(counts)
    return total


# each key maker maps the walk's leaves in C, with no Python frame per
# minimum, except the census, whose key reads the stabilizer's elements
def _stabilizer_sizes(walk):
    return map(len, map(itemgetter(1), walk))


def _census_keys(walk):
    return starmap(_census_key, walk)


def _census_key(partner, stabilizer, crossings) -> tuple[int, int, int, bool]:
    """k, the non-identity stabilizer's size, how many of its elements are
    rotations, the crossings, and strictness: partner[0] != 1 at a minimum
    (module docstring). A dihedral element is a rotation iff it maps 1 to
    the successor of its image of 0; a reflection v -> s - v maps 1 to the
    predecessor, which differs on 4 or more points, and on 2 points the
    only non-identity element is the rotation by one."""
    size = len(partner)
    rotations = 0
    # a loop, not sum() of a generator: most minima have no stabilizer, and
    # the generator would cost one more object per leaf
    for img, _, _ in stabilizer:
        if img[1] == (img[0] + 1) % size:
            rotations += 1
    return len(stabilizer), rotations, crossings, partner[0] != 1


def _summary(n: int, group_order: int, sizes: Mapping[int, int]) -> OrbitSummary:
    """The summary of a group's orbits, counted by their size in sizes."""
    return OrbitSummary(
        n=n,
        group_order=group_order,
        orbit_count=sum(sizes.values()),
        orbit_size_histogram=dict(sorted(sizes.items())),
    )


def orbit_count(n: int, group: PermGroup, threads: int | None = None) -> OrbitSummary:
    """Exact orbit count and orbit-size histogram by full enumeration."""
    _check_n(n)
    _check_points(n, group)
    threads = _resolve_threads(threads)
    leaves = _orbit_walk(_relabelled(group), None, _stabilizer_sizes, threads=threads)
    # a minimum whose non-identity stabilizer has k elements stands for an
    # orbit of |G| / (1 + k), so distinct k give distinct orbit sizes
    sizes = {exact_div(group.order, 1 + k, "orbit size"): c for k, c in leaves.items()}
    return _summary(n, group.order, sizes)


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

    # the identity fixes every matching, so its walk checks no chord
    return sum(1 for _ in _walk(size, None, None if g.is_identity() else place, True))


def _minima(group: PermGroup) -> Iterator[list[int]]:
    """The partner array of each minimum of the group's orbits, in
    ascending order, from one serial walk. Each array is the walk's own
    list, changed after the next one is asked for, so a caller that keeps
    one copies it."""
    size = group.size
    table = _position0_table(size, _element_arrays(group))
    return map(itemgetter(0), _walk(size, None, None, None, table))


def representatives(n: int, group: PermGroup) -> list[ChordDiagram]:
    """One canonical representative per orbit, sorted by partner array."""
    _check_n(n)
    _check_points(n, group)
    # the walk ascends lexicographically, so the list comes out sorted
    return [ChordDiagram._unchecked(tuple(p)) for p in _minima(group)]


def _census_step(partner, v, w, crossings: int) -> int:
    """Crossings so far, with chord (v, w) placed."""
    # every matched point strictly inside (v, w) has its partner below v
    inside = partner[v + 1:w]
    return crossings + len(inside) - inside.count(-1)


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
    leaves = _orbit_walk(group, _census_step, _census_keys, 0, threads)
    # a key counted c times stands for c D_2n-orbits of |D| / (1 + k)
    # diagrams each; C_2n is normal in D_2n, so the C_2n-orbits inside one
    # of them all have 1 + k_r stabilizer elements, |C| / (1 + k_r) diagrams
    dihedral_sizes: Counter = Counter()
    cyclic_sizes: Counter = Counter()
    coeffs = [0] * (n * (n - 1) // 2 + 1)
    strict = 0
    for (k, k_r, crossings, is_strict), count in leaves.items():
        size = exact_div(group.order, 1 + k, "dihedral orbit size")
        dihedral_sizes[size] += count
        cyclic_size = exact_div(2 * n, 1 + k_r, "cyclic orbit size")
        per_orbit = exact_div(size, cyclic_size, "cyclic orbits per dihedral orbit")
        cyclic_sizes[cyclic_size] += count * per_orbit
        coeffs[crossings] += count * size
        if is_strict:
            strict += count * size
    return (
        _summary(n, 1, {1: sum(coeffs)}),
        _summary(n, 2 * n, cyclic_sizes),
        _summary(n, group.order, dihedral_sizes),
        CrossingPolynomial(n=n, coefficients=tuple(coeffs)),
        strict,
    )


def crossing_distribution(n: int, threads: int | None = None) -> CrossingPolynomial:
    """Histogram of diagrams by crossing number, by direct counting."""
    return _dihedral_census(n, threads)[3]


def strict_count(n: int) -> int:
    """Number of diagrams with no chord joining neighbours on the circle,
    by direct counting."""
    return _dihedral_census(n)[4]
