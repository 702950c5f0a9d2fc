import math
from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations, product
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chorddia import groups
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
    partitions,
    wreath_cycle_type_distribution,
    wreath_uniform_count,
)
from chorddia import burnside
from chorddia.burnside import _class_sizes, _wreath_class_sum
from test_groups import conjugated_dihedral

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


@lru_cache(maxsize=None)
def reference_wreath_table(n):
    """Cycle-type counts of the pair permutations with flips, built as one
    whole table: for each pair-permutation type, every choice of how many
    of its l-cycles split into two entry l-cycles (the rest give one
    2l-cycle each)."""
    entries = {}
    for ct in partitions(n):
        parts = ct.parts
        denom = math.prod(l**m * math.factorial(m) for l, m in parts)
        base = math.factorial(n) // denom * 2 ** (n - sum(m for _, m in parts))
        for splits in product(*(range(m + 1) for _, m in parts)):
            counts = {}
            weight = base
            for (l, m), j in zip(parts, splits):
                weight *= math.comb(m, j)
                for length, count in ((l, 2 * j), (2 * l, m - j)):
                    if count:
                        counts[length] = counts.get(length, 0) + count
            key = tuple(sorted(counts.items()))
            entries[key] = entries.get(key, 0) + weight
    return entries


def reference_class_sum(n, group):
    """The wreath class sum from the whole table, indexed by each class's
    set of cycle lengths: for each acting class, every wreath class whose
    lengths all occur in it."""
    by_support = {}
    for parts, count in reference_wreath_table(n).items():
        by_support.setdefault(frozenset(l for l, _ in parts), []).append((parts, count))
    sizes = {}
    for g in group.elements:
        ct = cycle_type_of(g)
        sizes[ct] = sizes.get(ct, 0) + 1
    total = 0
    for g_type, g_mult in sizes.items():
        eta = dict(g_type.parts)
        for r in range(len(eta) + 1):
            for subset in combinations(sorted(eta), r):
                for w_parts, w_mult in by_support.get(frozenset(subset), ()):
                    term = w_mult * g_mult
                    for length, pi in w_parts:
                        term *= length**pi * falling_factorial(eta[length], pi)
                    total += term
    quotient, remainder = divmod(total, 2**n * math.factorial(n) * group.order)
    assert remainder == 0
    return quotient


class TestFallingFactorial:
    @pytest.mark.parametrize("a,k,expected", [(5, 0, 1), (5, 2, 20), (3, 5, 0)])
    def test_examples(self, a, k, expected):
        assert falling_factorial(a, k) == expected

    def test_matches_factorial_quotient(self):
        for a in range(8):
            for k in range(a + 1):
                assert falling_factorial(a, k) == math.factorial(a) // math.factorial(a - k)

    def test_equals_the_plain_product(self):
        # the product passes through zero for k > a
        for a in range(31):
            for k in range(31):
                assert falling_factorial(a, k) == math.prod(a - t for t in range(k))


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

    def test_matches_whole_table(self):
        for n in range(1, 13):
            table = reference_wreath_table(n)
            expected = {CycleType(parts): count for parts, count in table.items()}
            assert wreath_cycle_type_distribution(n).entries == expected

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

    def test_matches_whole_table_sum(self):
        for n in range(1, 17):
            for kind in STANDARD_FORMULAS:
                group = make_standard_group(kind, 2 * n)
                assert _wreath_class_sum(n, group) == reference_class_sum(n, group)

    def test_never_calls_the_fixed_count(self, monkeypatch):
        from chorddia import closed_forms

        def refuse(*args):
            raise AssertionError("the wreath class sum used the fixed counts")

        expected = dihedral_count(6)
        monkeypatch.setattr(burnside, "_class_sum", refuse)
        monkeypatch.setattr(closed_forms, "_class_sum", refuse)
        monkeypatch.setattr(closed_forms, "fixed_matching_count", refuse)
        assert _wreath_class_sum(6, make_standard_group("dihedral", 12)) == expected

    def test_size_mismatch(self):
        with pytest.raises(DomainError):
            _wreath_class_sum(3, make_standard_group("cyclic", 8))


@st.composite
def small_generators(draw, max_points=8, min_points=2):
    """Up to three random image lists on an even number of points from
    min_points to max_points, as (points, image lists)."""
    points = draw(st.sampled_from(range(min_points, max_points + 1, 2)))
    return points, draw(st.lists(st.permutations(range(points)), max_size=3))


def close_small(points, images):
    """The group the image lists generate; closures above 2000 elements
    (most of S_8) are rejected to keep the oracle quick."""
    try:
        with patch.object(groups, "MAX_CLOSURE_ENTRIES", 2000 * points):
            return generate_group([GroupElement.from_images(p) for p in images], points)
    except ResourceLimitError:
        assume(False)


@st.composite
def small_groups(draw, max_points=8, min_points=2):
    """A group closed from up to three random generators (small_generators,
    close_small)."""
    return close_small(*draw(small_generators(max_points, min_points)))


@settings(max_examples=60, deadline=None)
@given(small_groups())
def test_three_derivations_agree_on_random_groups(group):
    n = group.size // 2
    summary = orbit_count(n, group)
    expected = summary.orbit_count
    assert burnside_count(n, group) == expected
    assert _wreath_class_sum(n, group) == expected
    # the orbits partition the (2n-1)!! matchings, each orbit size dividing |G|
    hist = summary.orbit_size_histogram
    assert sum(size * c for size, c in hist.items()) == diagram_count(n)
    assert all(group.order % size == 0 for size in hist)


@st.composite
def sparse_generators(draw, max_points=20, max_moved=6):
    """Up to three random permutations, some of them the identity, of one
    random set of at most max_moved of the points, as (points, image
    lists): the set may be empty, and fixed points lie between its points."""
    points = draw(st.sampled_from(range(2, max_points + 1, 2)))
    moved = draw(st.lists(st.sampled_from(range(points)), unique=True, max_size=max_moved))
    perms = st.one_of(st.just(moved), st.permutations(moved))
    generators = []
    for perm in draw(st.lists(perms, max_size=3)):
        images = list(range(points))
        for v, w in zip(moved, perm):
            images[v] = w
        generators.append(images)
    return points, generators


class TestGeneratedCount:
    """_generated_count, the CLI's Burnside count, reads the closure's rows
    and must agree with burnside_count of the closed group."""

    @settings(max_examples=60, deadline=None)
    @given(small_generators(max_points=10))
    def test_matches_burnside_count_of_the_group(self, case):
        points, images = case
        group = close_small(points, images)
        with patch.object(groups, "MAX_CLOSURE_ENTRIES", 2000 * points):
            got = burnside._generated_count(points // 2, images)
        assert got == burnside_count(points // 2, group)

    @settings(max_examples=60, deadline=None)
    @given(sparse_generators())
    # no generator, and only the identity: both close on no point
    @example((8, []))
    @example((8, [list(range(8))]))
    def test_matches_burnside_count_on_a_scattered_support(self, case):
        points, images = case
        n = points // 2
        group = generate_group([GroupElement.from_images(p) for p in images], points)
        got = burnside._generated_count(n, images)
        assert got == burnside_count(n, group)
        if n <= 5:
            assert got == orbit_count(n, group).orbit_count

    def test_closes_on_the_points_it_moves(self, monkeypatch):
        # S_4 on points 1, 6, 10 and 13 of 16, from a transposition and a
        # 4-cycle of them
        swap, cycle = list(range(16)), list(range(16))
        swap[1], swap[6] = 6, 1
        for v, w in zip([1, 6, 10, 13], [6, 10, 13, 1]):
            cycle[v] = w
        expected = burnside_count(
            8, generate_group([GroupElement.from_images(swap), GroupElement.from_images(cycle)], 16))
        closure = groups._closure_rows
        closed_on = []

        def recording(generators, points, most=None):
            closed_on.append(points)
            return closure(generators, points, most)

        monkeypatch.setattr(groups, "_closure_rows", recording)
        assert burnside._generated_count(8, [swap, cycle]) == expected
        assert closed_on == [4]

    # 256 points is the largest closure stored as bytes, 258 the smallest
    # as tuples
    @pytest.mark.parametrize("points, row_type", [(254, bytes), (256, bytes), (258, tuple)])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_conjugated_dihedral_groups(self, points, row_type, seed):
        gens = conjugated_dihedral(points, seed)
        images = [g.images for g in gens]
        rows = groups._closure_rows(images, points)
        assert len(rows) == 2 * points
        assert {type(row) for row in rows} == {row_type}
        n = points // 2
        got = burnside._generated_count(n, images)
        assert got == burnside_count(n, generate_group(gens, points))
        # a relabelled dihedral group has the dihedral group's cycle types
        assert got == dihedral_count(n)

    @pytest.mark.parametrize("points", [8, 258])
    def test_same_bound_and_message_as_the_closure(self, monkeypatch, points):
        # S_4 on points 0..3: 24 elements of `points` entries
        images = [[1, 0, 2, 3, *range(4, points)], [1, 2, 3, 0, *range(4, points)]]
        gens = [GroupElement.from_images(p) for p in images]
        n = points // 2
        monkeypatch.setattr(groups, "MAX_CLOSURE_ENTRIES", 24 * points)
        assert burnside._generated_count(n, images) == burnside_count(
            n, generate_group(gens, points))
        monkeypatch.setattr(groups, "MAX_CLOSURE_ENTRIES", 24 * points - 1)
        message = f"^group closure on {points} points exceeded {24 * points - 1} stored image entries$"
        with pytest.raises(ResourceLimitError, match=message):
            burnside._generated_count(n, images)
        with pytest.raises(ResourceLimitError, match=message):
            generate_group(gens, points)

    def test_same_size_check_as_the_closure(self):
        message = "^generator size 4 does not match points=6$"
        with pytest.raises(DomainError, match=message):
            burnside._generated_count(3, [[1, 2, 3, 0]])
        with pytest.raises(DomainError, match=message):
            generate_group([GroupElement.rotation(4, 1)], 6)


@settings(max_examples=60, deadline=None)
@given(small_groups(max_points=12))
def test_class_sum_matches_whole_table_sum(group):
    n = group.size // 2
    assert _wreath_class_sum(n, group) == reference_class_sum(n, group)


@st.composite
def sparse_groups(draw, max_points=20, max_moved=6):
    """The group that sparse_generators generate, so that most elements
    fix most points."""
    points, images = draw(sparse_generators(max_points, max_moved))
    return generate_group([GroupElement.from_images(p) for p in images], points)


def reference_cycle_type(g):
    """The cycle type from following every point's cycle, fixed points
    included, with no cache."""
    seen = set()
    lengths = []
    for start in range(g.size):
        if start not in seen:
            cycle = [start]
            while g(cycle[-1]) != start:
                cycle.append(g(cycle[-1]))
            seen.update(cycle)
            lengths.append(len(cycle))
    return CycleType.from_lengths(lengths)


def assert_split_by_element(group):
    """_class_sizes agrees with typing every element by a plain walk, in
    the order of each class's first element."""
    sizes = _class_sizes(group.size // 2, group, "test")
    expected = Counter(reference_cycle_type(g).parts for g in group)
    assert sizes == expected
    assert list(sizes) == list(expected)


class TestClassSizes:
    @settings(max_examples=60, deadline=None)
    @given(small_groups(max_points=10))
    def test_random_groups(self, group):
        assert_split_by_element(group)

    @settings(max_examples=60, deadline=None)
    @given(sparse_groups())
    def test_groups_that_fix_most_points(self, group):
        assert_split_by_element(group)

    @pytest.mark.parametrize("points", [2, 8, 300])
    def test_identity_group(self, points):
        group = make_standard_group("identity", points)
        assert_split_by_element(group)
        assert _class_sizes(points // 2, group, "test") == {((1, points),): 1}

    @settings(max_examples=6, deadline=None)
    @given(st.sampled_from(["cyclic", "dihedral"]), st.integers(129, 160))
    def test_standard_groups_past_256_points(self, kind, n):
        # past 256 points the closure keeps tuple images, not bytes
        assert_split_by_element(make_standard_group(kind, 2 * n))

    @pytest.mark.parametrize(
        "group, classes",
        [
            (make_standard_group("dihedral", 12), 7),
            # S_6 on 6 of 8 points: one class per partition of 6
            (generate_group([GroupElement.from_images([1, 0, 2, 3, 4, 5, 6, 7]),
                             GroupElement.from_images([1, 2, 3, 4, 5, 0, 6, 7])], 8), 11),
        ],
    )
    def test_types_each_element_once(self, monkeypatch, group, classes):
        # the benchmark's tracer wraps burnside.cycle_type_of and counts
        # one call per element of the split
        typed = []

        def counted(g):
            typed.append(g)
            return cycle_type_of(g)

        monkeypatch.setattr(burnside, "cycle_type_of", counted)
        sizes = _class_sizes(group.size // 2, group, "test")
        assert typed == list(group.elements)
        assert len(sizes) == classes
        assert sum(sizes.values()) == group.order
