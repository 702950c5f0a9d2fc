"""Classical whole-set counts: noncrossing diagrams, the distribution of
diagrams by crossing number, and strict diagrams (no chord doubling a
circle edge)."""

from __future__ import annotations

import math

from .errors import ConsistencyError, DomainError, Record, exact_div


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


def strict_sequences(n_max: int) -> StrictSequences:
    """Strict-diagram counts through order n_max via the
    Hazewinkel-Kalashnikov recurrence on the cumulative sequence:
    a(n) = (2n-1) * a(n-1) + a(n-2), seeded with a(1) = 0, a(2) = 1; the
    per-order counts are the first differences."""
    if n_max < 1:
        raise DomainError("strict_sequences requires n_max >= 1")
    cumulative = [0, 1]
    for n in range(3, n_max + 1):
        cumulative.append((2 * n - 1) * cumulative[-1] + cumulative[-2])
    cumulative = cumulative[:n_max]
    strict = [cumulative[0]]
    for k in range(1, len(cumulative)):
        strict.append(cumulative[k] - cumulative[k - 1])
    return StrictSequences(cumulative=tuple(cumulative), strict=tuple(strict))
