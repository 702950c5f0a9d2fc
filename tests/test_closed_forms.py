import hashlib
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chorddia import (
    ConsistencyError,
    CycleType,
    DomainError,
    GroupElement,
    asymptotic_lower_bound,
    burnside_count,
    cycle_type_of,
    cyclic_count,
    diagram_count,
    dihedral_count,
    divisors,
    double_factorial,
    euler_phi,
    fixed_diagram_count,
    fixed_matching_count,
    generate_group,
    make_standard_group,
    partial_pairing_count,
    reflection_type_wreath_count,
    rotation_fixed_count,
    wreath_uniform_count,
)
from chorddia import closed_forms
from chorddia.burnside import _class_sizes
from chorddia.closed_forms import _class_sum


class TestDoubleFactorial:
    def test_convention(self):
        assert double_factorial(-1) == 1
        assert double_factorial(0) == 1
        assert double_factorial(1) == 1
        assert double_factorial(5) == 15
        assert double_factorial(9) == 945

    def test_diagram_count(self):
        assert [diagram_count(n) for n in range(1, 6)] == [1, 3, 15, 105, 945]


def even_factor_sum(length, mult):
    """The even-cycle factor as the sum the recurrence replaced:
    sum_k C(m, 2k) * l^k * (2k-1)!!."""
    return sum(
        math.comb(mult, 2 * k) * length**k * double_factorial(2 * k - 1)
        for k in range(mult // 2 + 1)
    )


class TestFixedMatchingCount:
    @pytest.mark.parametrize(
        "counts,expected",
        [({1: 6}, 15), ({2: 3}, 7), ({3: 2}, 3), ({1: 2, 2: 2}, 3), ({1: 1, 3: 1}, 0)],
    )
    def test_examples(self, counts, expected):
        assert fixed_matching_count(CycleType.from_counts(counts)) == expected

    def test_matches_oracle_on_standard_groups(self):
        for n in range(1, 6):
            for kind in ("cyclic", "dihedral"):
                for g in make_standard_group(kind, 2 * n):
                    expected = fixed_diagram_count(n, g)
                    assert fixed_matching_count(cycle_type_of(g)) == expected, (kind, g)

    def test_even_recurrence_matches_sum(self):
        for length in range(2, 13, 2):
            for mult in range(1, 61):
                got = fixed_matching_count(CycleType(((length, mult),)))
                assert got == even_factor_sum(length, mult), (length, mult)
        mixed = CycleType(((1, 4), (2, 7), (3, 2), (6, 9)))
        expected = 1 * 3 * even_factor_sum(2, 7) * 3 * even_factor_sum(6, 9)
        assert fixed_matching_count(mixed) == expected

    def test_dihedral_2000_unchanged(self):
        # digest of d_2000 as computed with the sum before the recurrence
        value = dihedral_count(2000)
        digest = hashlib.sha256(value.to_bytes((value.bit_length() + 7) // 8, "big"))
        assert value.bit_length() == 21034
        assert value % 10**12 == 610666418020
        assert digest.hexdigest() == (
            "0765c95136e8841c30efd2d5c05c7f3d96a33e6b900ec4fcd0e97c67eafeb559"
        )

    def test_cyclic_2000_unchanged(self):
        # digest of c_2000 as computed with one fixed count per divisor
        value = cyclic_count(2000)
        assert value.bit_length() == 21035
        assert value % 10**12 == 233882932732
        assert sha256_hex(value) == (
            "b170c7e8138f64bf024145544d5792e9db4773724e570f45684035bd127cad9c"
        )

    def test_256_type_group_2000_unchanged(self):
        # digest of the orbit count as computed with one fixed count per type
        value = burnside_count(2000, swap_group(8, 2000))
        assert value.bit_length() == 21039
        assert value % 10**12 == 773925781250
        assert sha256_hex(value) == (
            "dc349461266ee768aad02dcd09bb1db6844d69fda6691e78879870aa71b60156"
        )


def sha256_hex(value):
    return hashlib.sha256(value.to_bytes((value.bit_length() + 7) // 8, "big")).hexdigest()


def swap_group(k, n):
    """The 2^k elements generated on 2n points by k involutions, the j-th
    swapping 2^j disjoint pairs of its own: one element, of type
    1^(2n-2j) 2^j, for each j < 2^k."""
    points = 2 * n
    generators, first = [], 0
    for j in range(k):
        images = list(range(points))
        for a in range(first, first + 2 ** (j + 1), 2):
            images[a], images[a + 1] = a + 1, a
        first += 2 ** (j + 1)
        generators.append(GroupElement.from_images(images))
    return generate_group(generators, points)


def reference_fixed_count(cycle_type):
    """The fixed count of one type, factor by factor, without the shared walk."""
    total = 1
    for length, mult in cycle_type.parts:
        if length % 2 == 0:
            total *= even_factor_sum(length, mult)
        elif mult % 2:
            return 0
        else:
            total *= length ** (mult // 2) * double_factorial(mult - 1)
    return total


@st.composite
def class_lists(draw):
    """Up to 8 classes drawn from up to 5 types over lengths 1..6, so that
    types share lengths, repeat, and have odd multiplicities of odd lengths."""
    types = draw(
        st.lists(
            st.dictionaries(st.integers(1, 6), st.integers(1, 14), min_size=1, max_size=4),
            min_size=1,
            max_size=5,
        )
    )
    picks = draw(st.lists(st.sampled_from(types), min_size=1, max_size=8))
    return [(CycleType.from_counts(t), draw(st.integers(1, 5))) for t in picks]


class TestClassSum:
    @settings(max_examples=200, deadline=None)
    @given(class_lists())
    @example([(CycleType.from_counts({1: 3, 2: 2}), 2), (CycleType.from_counts({1: 4, 2: 5}), 1),
              (CycleType.from_counts({1: 3, 2: 2}), 3), (CycleType.from_counts({3: 2, 4: 7}), 4)])
    def test_matches_per_type_reference(self, classes):
        expected = sum(size * reference_fixed_count(ct) for ct, size in classes)
        assert _class_sum([(ct.parts, size) for ct, size in classes], 1, "test") == expected

    def test_division_is_exact(self):
        # 2^1 fixes its one matching, which 2 does not divide
        with pytest.raises(ConsistencyError):
            _class_sum([(((2, 1),), 1)], 2, "test")

    def test_standard_classes(self, monkeypatch):
        # the classes the closed forms pass are those of the built groups
        calls = []

        def record(classes, order, context):
            calls.append((list(classes), order))
            return real(classes, order, context)

        real = closed_forms._class_sum
        monkeypatch.setattr(closed_forms, "_class_sum", record)
        for n in range(1, 41):
            for kind, formula in (("cyclic", cyclic_count), ("dihedral", dihedral_count)):
                calls.clear()
                formula(n)
                assert len(calls) == 1, (kind, n)
                classes, order = calls[0]
                group = make_standard_group(kind, 2 * n)
                passed = Counter()
                for parts, size in classes:
                    passed[parts] += size
                # D_2's four elements act on 2 points as only two permutations
                scale = 2 if (kind, n) == ("dihedral", 1) else 1
                sizes = _class_sizes(n, group, "test").items()
                assert passed == {parts: scale * size for parts, size in sizes}, (kind, n)
                assert order == scale * group.order, (kind, n)

    def test_counting_builds_no_cycle_type(self, monkeypatch):
        # the counting path passes plain parts; only cycle_type_of, whose
        # cache the first counts warm, hands out CycleTypes
        built = {}
        for n in range(1, 13):
            for kind in ("identity", "cyclic", "dihedral"):
                built[kind, n] = make_standard_group(kind, 2 * n)
            built["half-turn", n] = generate_group([GroupElement.rotation(2 * n, n)], 2 * n)
        expected = {key: burnside_count(key[1], group) for key, group in built.items()}

        def refuse(self):
            raise AssertionError(f"built {self.parts}")

        monkeypatch.setattr(CycleType, "_check", refuse)
        for n in range(1, 13):
            assert cyclic_count(n) == expected["cyclic", n]
            assert dihedral_count(n) == expected["dihedral", n]
            rotations = sum(rotation_fixed_count(n, i) * euler_phi(i) for i in divisors(2 * n))
            assert rotations == 2 * n * expected["cyclic", n]
        assert {key: burnside_count(key[1], group) for key, group in built.items()} == expected


class TestRotationFixedCount:
    @pytest.mark.parametrize(
        "n,i,expected", [(3, 1, 15), (3, 2, 7), (3, 3, 3), (3, 6, 1)]
    )
    def test_examples(self, n, i, expected):
        assert rotation_fixed_count(n, i) == expected

    def test_identity_order_counts_everything(self):
        for n in range(1, 9):
            assert rotation_fixed_count(n, 1) == diagram_count(n)

    def test_rejects_non_divisor(self):
        with pytest.raises(DomainError):
            rotation_fixed_count(3, 4)

    def test_ties_to_wreath_uniform_count(self):
        # nu(n, i) == i^(2n/i) * (2n/i)! * psi(n, i) / (2^n * n!)
        for n in range(1, 13):
            for i in divisors(2 * n):
                lhs = Fraction(
                    i ** (2 * n // i)
                    * math.factorial(2 * n // i)
                    * wreath_uniform_count(n, i),
                    2**n * math.factorial(n),
                )
                assert lhs == rotation_fixed_count(n, i)


class TestWreathUniformCount:
    @pytest.mark.parametrize("n,i,expected", [(2, 2, 3), (3, 2, 7), (3, 3, 8)])
    def test_examples(self, n, i, expected):
        assert wreath_uniform_count(n, i) == expected

    def test_rejects_non_divisor(self):
        with pytest.raises(DomainError):
            wreath_uniform_count(4, 3)


class TestPartialPairingCount:
    @pytest.mark.parametrize("n,expected", [(0, 1), (2, 3), (4, 25)])
    def test_examples(self, n, expected):
        assert partial_pairing_count(n) == expected

    def test_counts_disjoint_ordered_pairs(self):
        # brute force over subsets for small n
        from itertools import permutations

        for n in range(7):
            found = set()
            items = range(n)
            for k in range(n // 2 + 1):
                for perm in permutations(items, 2 * k):
                    pairs = tuple(sorted(zip(perm[::2], perm[1::2])))
                    if len({x for p in pairs for x in p}) == 2 * k:
                        found.add(pairs)
            assert partial_pairing_count(n) == len(found)

    def test_equals_all_transposition_wreath_count(self):
        for n in range(1, 13):
            assert partial_pairing_count(n) == wreath_uniform_count(n, 2)


class TestReflectionTypeWreathCount:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 9)])
    def test_examples(self, n, expected):
        assert reflection_type_wreath_count(n) == expected

    def test_identity_with_partial_pairings(self):
        for n in range(1, 15):
            assert reflection_type_wreath_count(n) == n * partial_pairing_count(n - 1)


class TestCounts:
    def test_cyclic_examples(self):
        assert cyclic_count(3) == 5
        assert cyclic_count(2) == 2
        assert cyclic_count(11) == 624999093

    def test_dihedral_examples(self):
        assert dihedral_count(3) == 5
        assert dihedral_count(4) == 17
        assert dihedral_count(1) == 1

    def test_table_values(self):
        # n = 3..10 growth-table values
        assert [cyclic_count(n) for n in range(3, 11)] == [
            5, 18, 105, 902, 9749, 127072, 1915951, 32743182,
        ]
        assert [dihedral_count(n) for n in range(3, 11)] == [
            5, 17, 79, 554, 5283, 65346, 966156, 16411700,
        ]

    def test_rejects_nonpositive(self):
        for fn in (cyclic_count, dihedral_count):
            with pytest.raises(DomainError):
                fn(0)

    def test_lower_bound_property(self):
        for n in range(1, 51):
            assert cyclic_count(n) * 2 * n >= diagram_count(n)
            assert dihedral_count(n) * 4 * n >= diagram_count(n)

    def test_reflection_contribution_identity(self):
        # 2*d_n - c_n == (n * psi(n,2) + psi_reflection(n) / n ... expanded:
        # gamma_n / (2^n n! 2n) with gamma_n built from the two wreath counts
        for n in range(1, 13):
            gamma = (
                2**n * math.factorial(n) * n * wreath_uniform_count(n, 2)
                + 2**n * math.factorial(n - 1) * n * reflection_type_wreath_count(n)
            )
            lhs = 2 * dihedral_count(n) - cyclic_count(n)
            quotient, remainder = divmod(gamma, 2**n * math.factorial(n) * 2 * n)
            assert remainder == 0
            assert lhs == quotient


class TestAsymptoticLowerBound:
    @pytest.mark.parametrize(
        "kind,n,floor", [("cyclic", 3, 2), ("dihedral", 5, 47), ("cyclic", 8, 126689)]
    )
    def test_floor_examples(self, kind, n, floor):
        assert asymptotic_lower_bound(kind, n).exact_floor == floor

    def test_fields(self):
        bound = asymptotic_lower_bound("dihedral", 6)
        assert bound.numerator == diagram_count(6)
        assert bound.denominator == 24
        assert bound.exact_floor == bound.numerator // bound.denominator
        assert bound.as_fraction == Fraction(diagram_count(6), 24)

    def test_bad_kind(self):
        with pytest.raises(DomainError):
            asymptotic_lower_bound("spherical", 3)

    def test_ratio_convergence(self):
        # the dihedral ratio trails the cyclic one by roughly a square:
        # it only drops under 1.05 at n = 8
        prev_c = prev_d = None
        for n in range(5, 31):
            ratio_c = Fraction(cyclic_count(n)) / asymptotic_lower_bound("cyclic", n).as_fraction
            ratio_d = Fraction(dihedral_count(n)) / asymptotic_lower_bound("dihedral", n).as_fraction
            assert 1 <= ratio_c and 1 <= ratio_d
            if n >= 6:
                assert ratio_c <= Fraction(105, 100)
            if n >= 8:
                assert ratio_d <= Fraction(105, 100)
            if prev_c is not None:
                assert ratio_c <= prev_c
                assert ratio_d <= prev_d
            prev_c, prev_d = ratio_c, ratio_d
        assert Fraction(cyclic_count(11)) / asymptotic_lower_bound(
            "cyclic", 11
        ).as_fraction <= Fraction(10001, 10000)

    def test_tail_bounds(self):
        # Stirling-style bounds: for odd i the per-orbit factor
        # (2n/i - 1)!!, for even i the whole fixed count
        sqrt2e = math.sqrt(2 * math.e)
        for n in range(1, 31):
            for i in divisors(2 * n):
                if i == 1:
                    continue
                if i % 2:
                    lhs = double_factorial(2 * n // i - 1)
                    bound = sqrt2e * (2 * n / (math.e * i)) ** (n / i)
                else:
                    lhs = rotation_fixed_count(n, i)
                    bound = sqrt2e * n * (2 * math.e * n) ** (n / i)
                assert lhs < bound

    def test_first_burnside_term_dominates(self):
        # the non-identity rotations contribute o((2n-1)!!)
        for n in range(2, 31):
            rest = sum(
                euler_phi(i) * rotation_fixed_count(n, i)
                for i in divisors(2 * n)
                if i > 1
            )
            assert 2 * n * cyclic_count(n) == diagram_count(n) + rest


class TestPublishedRowEleven:
    """The n = 11 growth-table row redone by hand, without the package.

    A matching is fixed by a permutation of cycle type {l: m} with count
    prod over l of: odd l, [m even] l^(m/2) (m-1)!!; even l,
    sum_k C(m, 2k) l^k (2k-1)!!.
    """

    @staticmethod
    def _double_factorial(k):
        result = 1
        while k > 1:
            result *= k
            k -= 2
        return result

    def _even_cycles(self, length, count):
        return sum(
            math.comb(count, 2 * k) * length**k * self._double_factorial(2 * k - 1)
            for k in range(count // 2 + 1)
        )

    def test_class_sums_over_22_points(self):
        identity = self._double_factorial(21)
        half_turn = self._even_cycles(2, 11)
        # type 1^2 2^10: the two fixed points must pair with each other
        point_reflection = self._even_cycles(2, 10)
        assert identity == 13749310575
        assert half_turn == 669351
        assert point_reflection == 133651

        rotations = identity + half_turn + 10 * 11 + 10 * 1
        reflections = 11 * half_turn + 11 * point_reflection
        assert rotations == 13749980046
        assert reflections == 8833022
        assert 22 * 624999093 == rotations
        assert 44 * 312700297 == rotations + reflections
        # the published row's values are not Burnside sums
        assert 22 * 625002933 != rotations
        assert 44 * 312702217 != rotations + reflections
