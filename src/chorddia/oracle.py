"""Brute-force ground truth over all (2n-1)!! matchings.

Everything here streams the full enumeration; nothing is derived from the
counting formulas, so agreement between the two is a real check. The
stream always uses the same order as diagrams.all_diagrams and can be
split into the 2n-1 independent branches fixed by the partner of point 0;
branch results merge by plain addition, so multi-process runs are
deterministic.

Orbit counting works by the canonical-predicate trick: a diagram is
counted iff it is the lexicographic minimum of its own orbit, which needs
no global dedup set. The per-diagram test bails out at the first position
where some group image is smaller, so the common case touches only a few
array entries.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass

from .classic import CrossingPolynomial
from .diagrams import ChordDiagram, matchings
from .errors import DomainError, ResourceLimitError
from .groups import GroupElement, PermGroup

DEFAULT_CAP = 8
HARD_CAP = 9
CAP_ENV_VAR = "CHORDDIA_ORACLE_CAP"

# (images, inverse-images) per element, the form the hot loops consume
_ElementArrays = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class OrbitSummary:
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


def _element_arrays(group: PermGroup) -> list[_ElementArrays]:
    """Non-identity elements as (images, inverse) pairs."""
    out = []
    for g in group.elements:
        if not g.is_identity():
            out.append((g.images, g.inverse().images))
    return out


def _is_canonical(partner: list[int], elems: list[_ElementArrays], size: int) -> bool:
    for img, inv in elems:
        v = 0
        while v < size:
            a = partner[v]
            b = img[partner[inv[v]]]
            if b != a:
                break
            v += 1
        else:
            continue
        if b < a:
            return False
    return True


def _stabilizer_order(partner: list[int], elems: list[_ElementArrays], size: int) -> int:
    order = 1  # identity
    for img, inv in elems:
        for v in range(size):
            if partner[v] != img[partner[inv[v]]]:
                break
        else:
            order += 1
    return order


def _orbit_branch(args) -> tuple[int, dict[int, int]]:
    size, first, elems, group_order = args
    count = 0
    histogram: dict[int, int] = {}
    for partner in matchings(size, first):
        if _is_canonical(partner, elems, size):
            count += 1
            orbit_size = group_order // _stabilizer_order(partner, elems, size)
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
    with multiprocessing.Pool(min(threads, len(tasks))) as pool:
        return pool.map(worker, tasks)


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
    count = 0
    for partner in matchings(size):
        for v in range(size):
            if partner[v] != img[partner[inv[v]]]:
                break
        else:
            count += 1
    return count


def representatives(n: int, group: PermGroup) -> list[ChordDiagram]:
    """One canonical representative per orbit, sorted by partner array."""
    _check_n(n)
    size = 2 * n
    if group.size != size:
        raise DomainError(f"group acts on {group.size} points, expected {size}")
    elems = _element_arrays(group)
    reps = [
        ChordDiagram(tuple(partner))
        for partner in matchings(size)
        if _is_canonical(partner, elems, size)
    ]
    reps.sort(key=lambda d: d.partner)
    return reps


def _crossing_branch(args) -> list[int]:
    size, first = args
    n = size // 2
    counts = [0] * (n * (n - 1) // 2 + 1)
    for partner in matchings(size, first):
        crossings = 0
        for a in range(size):
            b = partner[a]
            if b < a:
                continue
            for c in range(a + 1, b):
                if b < partner[c]:
                    crossings += 1
        counts[crossings] += 1
    return counts


def crossing_distribution(n: int, threads: int | None = None) -> CrossingPolynomial:
    """Histogram of diagrams by crossing number, by direct counting."""
    _check_n(n)
    size = 2 * n
    threads = _resolve_threads(threads)
    tasks = [(size, first) for first in range(1, size)]
    results = _map_branches(_crossing_branch, tasks, threads)
    coeffs = [sum(col) for col in zip(*results)]
    return CrossingPolynomial(n=n, coefficients=tuple(coeffs))


def strict_count(n: int) -> int:
    """Number of diagrams with no chord joining circle-adjacent points."""
    _check_n(n)
    size = 2 * n
    count = 0
    for partner in matchings(size):
        for v in range(size):
            if partner[v] == (v + 1) % size:
                break
        else:
            count += 1
    return count
