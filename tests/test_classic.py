import math

import pytest

from chorddia import (
    DomainError,
    ResourceLimitError,
    all_diagrams,
    catalan_noncrossing,
    crossing_polynomial,
    crossings,
    diagram_count,
    is_strict,
    strict_sequences,
)
from chorddia import classic
from chorddia.classic import _crossing_transfers, _strict_inclusion_exclusion


def brute_crossing_histogram(n):
    coeffs = [0] * (n * (n - 1) // 2 + 1)
    for d in all_diagrams(n):
        coeffs[crossings(d)] += 1
    return tuple(coeffs)


class TestCatalan:
    @pytest.mark.parametrize("n,expected", [(1, 1), (3, 5), (4, 14)])
    def test_examples(self, n, expected):
        assert catalan_noncrossing(n) == expected

    def test_matches_enumeration(self):
        for n in range(1, 7):
            brute = sum(1 for d in all_diagrams(n) if crossings(d) == 0)
            assert catalan_noncrossing(n) == brute

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            catalan_noncrossing(0)


class TestCrossingPolynomial:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, (1,)), (2, (2, 1)), (3, (5, 6, 3, 1))],
    )
    def test_examples(self, n, expected):
        assert crossing_polynomial(n).coefficients == expected

    def test_matches_enumeration(self):
        for n in range(1, 6):
            assert crossing_polynomial(n).coefficients == brute_crossing_histogram(n)

    def test_endpoint_values(self):
        for n in range(1, 16):
            poly = crossing_polynomial(n)
            assert poly.total == diagram_count(n)
            assert poly.noncrossing == catalan_noncrossing(n)
            assert len(poly.coefficients) == n * (n - 1) // 2 + 1
            assert all(c >= 0 for c in poly.coefficients)

    def test_summand_integrality(self):
        # (2j+1) * C(2n+1, n-j) is divisible by 2n+1
        for n in range(1, 31):
            for j in range(n + 1):
                assert ((2 * j + 1) * math.comb(2 * n + 1, n - j)) % (2 * n + 1) == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            crossing_polynomial(0)

    def test_work_bound(self, monkeypatch):
        assert classic.MAX_CROSSING_N == 500
        monkeypatch.setattr(classic, "MAX_CROSSING_N", 4)
        assert crossing_polynomial(4).total == diagram_count(4)
        with pytest.raises(ResourceLimitError, match="capped at n <= 4"):
            crossing_polynomial(5)


class TestCrossingTransfer:
    """The formula-free transfer count, verify's independent check of the
    polynomial now that the oracle's crossing walk shares the orbit prune."""

    def test_matches_polynomial(self):
        for n in range(1, 31):
            assert _crossing_transfers(n)[-1] == crossing_polynomial(n).coefficients

    def test_matches_enumeration(self):
        for n in range(1, 7):
            assert _crossing_transfers(n)[-1] == brute_crossing_histogram(n)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            _crossing_transfers(0)

    def test_one_scan_gives_every_row(self):
        # verify reads every n <= --n-max from one scan of 2 * n_max points
        rows = _crossing_transfers(40)
        assert len(rows) == 40
        for n, row in enumerate(rows, 1):
            assert row == crossing_polynomial(n).coefficients


class TestStrictSequences:
    def test_seed_values(self):
        seqs = strict_sequences(2)
        assert seqs.cumulative == (0, 1)
        assert seqs.strict == (0, 1)

    def test_small_values(self):
        seqs = strict_sequences(4)
        assert seqs.cumulative[2] == 5 and seqs.strict[2] == 4
        assert seqs.cumulative[3] == 36 and seqs.strict[3] == 31

    def test_recurrence(self):
        seqs = strict_sequences(30)
        a = seqs.cumulative
        for n in range(3, 31):
            assert a[n - 1] == (2 * n - 1) * a[n - 2] + a[n - 3]

    def test_cumulative_is_partial_sums(self):
        seqs = strict_sequences(12)
        total = 0
        for k in range(12):
            total += seqs.strict[k]
            assert seqs.cumulative[k] == total

    def test_matches_enumeration(self):
        seqs = strict_sequences(6)
        for n in range(1, 7):
            brute = sum(1 for d in all_diagrams(n) if is_strict(d))
            assert seqs.strict[n - 1] == brute

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            strict_sequences(0)


class TestStrictInclusionExclusion:
    """A strict count that shares nothing with the recurrence, for verify."""

    def test_matches_recurrence(self):
        seqs = strict_sequences(300)
        for n in range(1, 301):
            assert _strict_inclusion_exclusion(n) == seqs.strict[n - 1]

    def test_matches_enumeration(self):
        for n in range(1, 7):
            brute = sum(1 for d in all_diagrams(n) if is_strict(d))
            assert _strict_inclusion_exclusion(n) == brute

    def test_n_one_is_special(self):
        # the sum alone gives 1 - 2 = -1: the 2-cycle's two edges coincide
        assert _strict_inclusion_exclusion(1) == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            _strict_inclusion_exclusion(0)
