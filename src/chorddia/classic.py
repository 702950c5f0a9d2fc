"""Classical whole-set counts: noncrossing diagrams, the distribution of
diagrams by crossing number, and strict diagrams (no chord doubling a
circle edge)."""

from __future__ import annotations

import math

from .errors import ConsistencyError, DomainError, Record, ResourceLimitError, exact_div

# crossing_polynomial's division is about n^2/2 coefficients times n passes
# of growing integers: n = 500 takes about 14 s on a 2-vCPU machine, and
# the time grows as about n^4.3, so n = 1000 would take minutes
MAX_CROSSING_N = 500
# strict_sequences keeps all 2 * n_max values, of up to about n log10(2n/e)
# digits each: `strict --n-max 4000` takes about 8 s and 190 MB on a 2-vCPU
# machine, growing as about n^3 and n^2 (6000 takes 29 s and 430 MB)
MAX_STRICT_N = 4000


class CrossingPolynomial(Record):
    """coefficients[j] = number of diagrams of order n with exactly j
    crossings; length C(n,2)+1."""

    __slots__ = ("n", "coefficients")
    n: int
    coefficients: tuple[int, ...]

    def __init__(self, n: int, coefficients: tuple[int, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coefficients", coefficients)

    @property
    def total(self) -> int:
        return sum(self.coefficients)

    @property
    def noncrossing(self) -> int:
        return self.coefficients[0]


class StrictSequences(Record):
    """strict[k] is the number of strict diagrams of order k+1; cumulative[k]
    the running total through order k+1."""

    __slots__ = ("cumulative", "strict")
    cumulative: tuple[int, ...]
    strict: tuple[int, ...]

    def __init__(self, cumulative: tuple[int, ...], strict: tuple[int, ...]):
        object.__setattr__(self, "cumulative", cumulative)
        object.__setattr__(self, "strict", strict)


def catalan_noncrossing(n: int) -> int:
    """Diagrams of order n with no crossing chords: (2n)!/(n!(n+1)!)."""
    if n < 1:
        raise DomainError("catalan_noncrossing requires n >= 1")
    return math.factorial(2 * n) // (math.factorial(n) * math.factorial(n + 1))


def crossing_polynomial(n: int) -> CrossingPolynomial:
    """Distribution of diagrams of order n by crossing number, via the
    Touchard-Riordan identity: the distribution polynomial times (1-x)^n
    equals sum_j (-1)^j * t_nj * x^(j(j+1)/2) with
    t_nj = (2j+1)/(2n+1) * C(2n+1, n-j).

    The right-hand side is assembled exactly and divided by (1-x)^n with
    exact long division; any nonzero remainder or negative coefficient is
    an internal error.
    """
    if n < 1:
        raise DomainError("crossing_polynomial requires n >= 1")
    if n > MAX_CROSSING_N:
        raise ResourceLimitError(
            f"crossing polynomial capped at n <= {MAX_CROSSING_N}, got n = {n}"
        )
    rhs = [0] * (n * (n + 1) // 2 + 1)
    for j in range(n + 1):
        t_nj = exact_div(
            (2 * j + 1) * math.comb(2 * n + 1, n - j),
            2 * n + 1,
            "crossing_polynomial coefficient",
        )
        rhs[j * (j + 1) // 2] += (-1) ** j * t_nj
    # divide by (1-x) n times: prefix sums, with zero final carry each pass
    coeffs = rhs
    for _ in range(n):
        running = 0
        quotient = []
        for c in coeffs[:-1]:
            running += c
            quotient.append(running)
        if running + coeffs[-1] != 0:
            raise ConsistencyError("crossing_polynomial division left a remainder")
        coeffs = quotient
    degree = n * (n - 1) // 2
    coeffs = coeffs[: degree + 1]
    if any(c < 0 for c in coeffs):
        raise ConsistencyError("crossing_polynomial produced a negative coefficient")
    return CrossingPolynomial(n=n, coefficients=tuple(coeffs))


def _crossing_transfer(n: int) -> tuple[int, ...]:
    """Distribution of diagrams of order n by crossing number, by a
    transfer count that uses no closed form: scan the 2n points in order;
    each point opens a chord or closes one of the k open chords. Closing
    the j-th newest crosses exactly the j-1 newer open chords (each began
    inside it and ends outside), so it adds j-1 crossings.

    ways[k][c] is the number of ways to reach the current point with k
    chords open and c crossings so far.
    """
    if n < 1:
        raise DomainError("_crossing_transfer requires n >= 1")
    size = 2 * n
    ways = [[1]]
    for point in range(size):
        left = size - point - 1  # points after this one
        nxt: list[list[int]] = [[] for _ in range(len(ways) + 1)]
        for k, poly in enumerate(ways):
            if k < left:  # opening leaves k+1 chords for the points after
                _add_shifted(nxt[k + 1], poly, 0)
            for j in range(1, k + 1):
                _add_shifted(nxt[k - 1], poly, j - 1)
        ways = nxt
    return tuple(ways[0])


def _add_shifted(target: list[int], poly: list[int], shift: int):
    """target += x^shift * poly, growing target as needed."""
    need = len(poly) + shift
    if len(target) < need:
        target.extend([0] * (need - len(target)))
    for c, count in enumerate(poly):
        target[c + shift] += count


def _strict_inclusion_exclusion(n: int) -> int:
    """Strict diagrams of order n by inclusion-exclusion over the edges of
    the circle (the 2n-cycle) that are used as chords, with no recurrence:
    sum over k of (-1)^k * e_k * (2n-2k-1)!!, where
    e_k = 2n/(2n-k) * C(2n-k, k) is the number of sets of k pairwise
    disjoint circle edges and (2n-2k-1)!! matches the points they leave.

    At n = 1 the two edges of the 2-cycle are the same chord, which the
    sum counts twice, so the one (non-strict) diagram is a special case.
    """
    if n < 1:
        raise DomainError("_strict_inclusion_exclusion requires n >= 1")
    if n == 1:
        return 0
    size = 2 * n
    rest = [1]  # rest[m] = (2m-1)!!
    for m in range(1, n + 1):
        rest.append(rest[-1] * (2 * m - 1))
    total = 0
    for k in range(n + 1):
        edge_sets = exact_div(
            size * math.comb(size - k, k), size - k, "strict inclusion-exclusion edge sets"
        )
        total += (-1) ** k * edge_sets * rest[n - k]
    return total


def strict_sequences(n_max: int) -> StrictSequences:
    """Strict-diagram counts through order n_max via the
    Hazewinkel-Kalashnikov recurrence on the cumulative sequence:
    a(n) = (2n-1) * a(n-1) + a(n-2), seeded with a(1) = 0, a(2) = 1; the
    per-order counts are the first differences."""
    if n_max < 1:
        raise DomainError("strict_sequences requires n_max >= 1")
    if n_max > MAX_STRICT_N:
        raise ResourceLimitError(
            f"strict sequences capped at n <= {MAX_STRICT_N}, got n = {n_max}"
        )
    cumulative = [0, 1]
    for n in range(3, n_max + 1):
        cumulative.append((2 * n - 1) * cumulative[-1] + cumulative[-2])
    cumulative = cumulative[:n_max]
    strict = [cumulative[0]]
    for k in range(1, len(cumulative)):
        strict.append(cumulative[k] - cumulative[k - 1])
    return StrictSequences(cumulative=tuple(cumulative), strict=tuple(strict))
