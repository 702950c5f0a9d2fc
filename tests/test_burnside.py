import math
from itertools import permutations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chorddia import (
    CycleType,
    DomainError,
    GroupElement,
    ResourceLimitError,
    burnside_count,
    cycle_type_of,
    cyclic_count,
    diagram_count,
    dihedral_count,
    divisors,
    falling_factorial,
    generate_group,
    make_standard_group,
    orbit_count,
    wreath_cycle_type_distribution,
    wreath_uniform_count,
)
from chorddia.burnside import _wreath_class_sum

STANDARD_FORMULAS = {
    "identity": diagram_count,
    "cyclic": cyclic_count,
    "dihedral": dihedral_count,
}


def brute_wreath_distribution(n):
    """Cycle-type histogram over all 2^n n! pair permutations with flips,
    acting on the 2n cells (i, j) of an n x 2 array; cell (i, j) maps to
    cell (tau(i), j xor flip_i)."""
    histogram = {}
    for tau in permutations(range(n)):
        for flips in product((0, 1), repeat=n):
            images = [0] * (2 * n)
            for i in range(n):
                for j in range(2):
                    images[2 * i + j] = 2 * tau[i] + (j ^ flips[i])
            ct = cycle_type_of(GroupElement.from_images(images))
            histogram[ct] = histogram.get(ct, 0) + 1
    return histogram


class TestFallingFactorial:
    @pytest.mark.parametrize("a,k,expected", [(5, 0, 1), (5, 2, 20), (3, 5, 0)])
    def test_examples(self, a, k, expected):
        assert falling_factorial(a, k) == expected

    def test_matches_factorial_quotient(self):
        for a in range(8):
            for k in range(a + 1):
                assert falling_factorial(a, k) == math.factorial(a) // math.factorial(a - k)


class TestWreathDistribution:
    def test_n1_exact(self):
        dist = wreath_cycle_type_distribution(1)
        assert dist.entries == {
            CycleType(((1, 2),)): 1,
            CycleType(((2, 1),)): 1,
        }

    def test_n2_exact(self):
        dist = wreath_cycle_type_distribution(2)
        assert dist.entries == {
            CycleType(((1, 4),)): 1,
            CycleType(((1, 2), (2, 1))): 2,
            CycleType(((2, 2),)): 3,
            CycleType(((4, 1),)): 2,
        }
        assert dist.total == 8

    def test_total_mass(self):
        for n in range(1, 13):
            assert wreath_cycle_type_distribution(n).total == 2**n * math.factorial(n)

    def test_keys_have_full_degree(self):
        for n in range(1, 9):
            for ct in wreath_cycle_type_distribution(n).entries:
                assert ct.degree == 2 * n

    def test_matches_brute_force(self):
        for n in range(1, 7):
            assert wreath_cycle_type_distribution(n).entries == brute_wreath_distribution(n)

    def test_uniform_type_counts(self):
        for n in range(1, 13):
            dist = wreath_cycle_type_distribution(n)
            for i in divisors(2 * n):
                key = CycleType(((i, 2 * n // i),))
                assert dist.entries.get(key, 0) == wreath_uniform_count(n, i)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            wreath_cycle_type_distribution(0)


class TestBurnsideCount:
    def test_identity_group_counts_all(self):
        assert burnside_count(3, make_standard_group("identity", 6)) == 15

    def test_cyclic_example(self):
        assert burnside_count(3, make_standard_group("cyclic", 6)) == 5

    def test_dihedral_example(self):
        assert burnside_count(4, make_standard_group("dihedral", 8)) == 17

    def test_identity_matches_double_factorial(self):
        for n in range(1, 13):
            assert burnside_count(n, make_standard_group("identity", 2 * n)) == diagram_count(n)

    def test_matches_closed_forms(self):
        for n in range(1, 13):
            assert burnside_count(n, make_standard_group("cyclic", 2 * n)) == cyclic_count(n)
            assert burnside_count(n, make_standard_group("dihedral", 2 * n)) == dihedral_count(n)

    def test_size_mismatch(self):
        with pytest.raises(DomainError):
            burnside_count(3, make_standard_group("cyclic", 8))

    def test_arbitrary_subgroup(self):
        # half-turn only: subgroup {id, r^3} of C_6
        group = generate_group([GroupElement.rotation(6, 3)], 6)
        assert group.order == 2
        # Burnside: (15 + 7) / 2
        assert burnside_count(3, group) == 11

    def test_reaches_large_orders(self):
        # far beyond any 2^n n! wreath table
        assert burnside_count(100, make_standard_group("dihedral", 200)) == dihedral_count(100)


class TestWreathClassSum:
    def test_matches_closed_forms(self):
        for n in range(1, 21):
            for kind, formula in STANDARD_FORMULAS.items():
                assert _wreath_class_sum(n, make_standard_group(kind, 2 * n)) == formula(n)

    def test_size_mismatch(self):
        with pytest.raises(DomainError):
            _wreath_class_sum(3, make_standard_group("cyclic", 8))


@st.composite
def small_groups(draw):
    """A group closed from up to three random generators on 2, 4, 6 or 8
    points; closures above 2000 elements (most of S_8) are rejected to keep
    the oracle quick."""
    points = draw(st.sampled_from((2, 4, 6, 8)))
    images = draw(st.lists(st.permutations(range(points)), max_size=3))
    try:
        return generate_group(
            [GroupElement.from_images(p) for p in images], points, max_elements=2000
        )
    except ResourceLimitError:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(small_groups())
def test_three_derivations_agree_on_random_groups(group):
    n = group.size // 2
    expected = orbit_count(n, group).orbit_count
    assert burnside_count(n, group) == expected
    assert _wreath_class_sum(n, group) == expected
