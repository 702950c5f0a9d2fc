import math
import pickle
import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chorddia import groups
from chorddia import (
    CycleType,
    DomainError,
    GroupElement,
    PermGroup,
    ResourceLimitError,
    cycle_type_of,
    divisors,
    euler_phi,
    generate_group,
    make_standard_group,
    partitions,
)


def brute_phi(m):
    return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


def brute_divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


def brute_partition_count(n):
    # p(n, k): partitions of n into parts <= k
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        table[0][k] = 1
    for total in range(1, n + 1):
        for k in range(1, n + 1):
            table[total][k] = table[total][k - 1]
            if total >= k:
                table[total][k] += table[total - k][k]
    return table[n][n]


class TestEulerPhi:
    @pytest.mark.parametrize("m,expected", [(1, 1), (6, 2), (12, 4)])
    def test_examples(self, m, expected):
        assert euler_phi(m) == expected
        assert brute_phi(m) == expected

    def test_matches_brute_force(self):
        for m in range(1, 201):
            assert euler_phi(m) == brute_phi(m)

    def test_divisor_sum_identity(self):
        for m in range(1, 201):
            assert sum(euler_phi(d) for d in divisors(m)) == m

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            euler_phi(0)


class TestDivisors:
    @pytest.mark.parametrize(
        "m,expected", [(1, [1]), (6, [1, 2, 3, 6]), (22, [1, 2, 11, 22])]
    )
    def test_examples(self, m, expected):
        assert divisors(m) == expected
        assert brute_divisors(m) == expected

    def test_matches_trial_division(self):
        for m in range(1, 201):
            assert divisors(m) == brute_divisors(m)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            divisors(0)


class TestPartitions:
    def test_single(self):
        assert list(partitions(1)) == [CycleType(((1, 1),))]

    def test_n4_descending_lex(self):
        got = [tuple(sorted((l for l, m in ct.parts for _ in range(m)), reverse=True))
               for ct in partitions(4)]
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_n0_yields_empty(self):
        assert list(partitions(0)) == [CycleType(())]

    def test_counts(self):
        assert len(list(partitions(10))) == 42
        for n in range(31):
            assert len(list(partitions(n))) == brute_partition_count(n)

    def test_degree_and_uniqueness(self):
        for n in range(12):
            seen = list(partitions(n))
            assert len(set(seen)) == len(seen)
            assert all(ct.degree == n for ct in seen)


class TestCycleType:
    def test_of_identity(self):
        assert cycle_type_of(GroupElement.identity(6)) == CycleType(((1, 6),))

    def test_of_full_rotation(self):
        assert cycle_type_of(GroupElement.rotation(6, 1)) == CycleType(((6, 1),))

    def test_of_rotation_shift_two(self):
        # (0 2 4)(1 3 5)
        assert cycle_type_of(GroupElement.rotation(6, 2)) == CycleType(((3, 2),))

    def test_validation(self):
        with pytest.raises(DomainError):
            CycleType(((0, 1),))
        with pytest.raises(DomainError):
            CycleType(((2, 0),))
        assert CycleType.from_counts({2: 3, 1: 0}) == CycleType(((2, 3),))

    def test_degree_and_multiplicity(self):
        ct = CycleType.from_lengths([2, 2, 3])
        assert ct.degree == 7
        assert ct.multiplicity(2) == 2
        assert ct.multiplicity(5) == 0


class TestGroupElement:
    def test_rejects_non_bijection(self):
        with pytest.raises(DomainError):
            GroupElement.from_images([0, 0, 1])

    def test_rotation_images_pointwise(self):
        g = GroupElement.rotation(6, 2)
        assert g.images == tuple((v + 2) % 6 for v in range(6))

    def test_reflection_images_pointwise(self):
        g = GroupElement.reflection(6, 1)
        assert g.images == tuple((1 - v) % 6 for v in range(6))

    def test_compose_and_inverse(self):
        a = GroupElement.rotation(8, 3)
        b = GroupElement.reflection(8, 5)
        assert (a * b).images == tuple(a(b(v)) for v in range(8))
        assert (a * a.inverse()).is_identity()
        assert (b * b).is_identity()

    def test_order(self):
        assert GroupElement.rotation(12, 3).order() == 4
        assert GroupElement.identity(4).order() == 1


class TestStandardGroups:
    @pytest.mark.parametrize(
        "kind,points,order",
        [("cyclic", 6, 6), ("dihedral", 6, 12), ("identity", 8, 1), ("dihedral", 8, 16)],
    )
    def test_orders(self, kind, points, order):
        assert make_standard_group(kind, points).order == order

    def test_two_point_dihedral_degenerates(self):
        # the lone reflection equals the half-turn on 2 points
        assert make_standard_group("dihedral", 2).order == 2

    @pytest.mark.parametrize("points", [0, 5])
    def test_bad_points(self, points):
        with pytest.raises(DomainError):
            make_standard_group("cyclic", points)

    def test_bad_kind(self):
        with pytest.raises(DomainError):
            make_standard_group("icosahedral", 6)

    def test_contains_identity_and_closed(self):
        for kind in ("identity", "cyclic", "dihedral"):
            group = make_standard_group(kind, 8)
            elements = set(group.elements)
            assert GroupElement.identity(8) in elements
            for g in group:
                assert g.inverse() in elements
                for h in group:
                    assert g * h in elements

    def test_lagrange(self):
        for points in (2, 4, 6):
            for kind in ("identity", "cyclic", "dihedral"):
                group = make_standard_group(kind, points)
                assert math.factorial(points) % group.order == 0

    def test_cycle_types_degree(self):
        for kind in ("cyclic", "dihedral"):
            for g in make_standard_group(kind, 10):
                assert cycle_type_of(g).degree == 10

    def test_cyclic_rotation_class_sizes(self):
        # rotations of order i come phi(i) apiece, with cycle type i^(2n/i)
        for points in (6, 8, 12):
            group = make_standard_group("cyclic", points)
            for i in divisors(points):
                expected_type = CycleType(((i, points // i),))
                count = sum(1 for g in group if cycle_type_of(g) == expected_type)
                assert count == euler_phi(i)

    def test_dihedral_reflection_types(self):
        # n reflections fix two points, n fix none; the half-turn rotation
        # also has the all-transpositions type
        for points in (6, 8, 10):
            n = points // 2
            group = make_standard_group("dihedral", points)
            types = [cycle_type_of(g) for g in group]
            assert types.count(CycleType(((2, n),))) == n + 1
            two_fixed = CycleType(((1, 2), (2, n - 1)))
            assert types.count(two_fixed) == n

    @pytest.mark.parametrize(
        "kind,entries", [("identity", 6), ("cyclic", 36), ("dihedral", 72)]
    )
    def test_entry_bound(self, monkeypatch, kind, entries):
        # on 6 points: 1, 6 and 12 elements built, 6 entries each
        monkeypatch.setattr(groups, "MAX_CLOSURE_ENTRIES", entries)
        assert make_standard_group(kind, 6).size == 6
        monkeypatch.setattr(groups, "MAX_CLOSURE_ENTRIES", entries - 1)

        def refuse(*args):
            raise AssertionError("an element was built past the bound")

        for build in ("identity", "rotation", "reflection"):
            monkeypatch.setattr(GroupElement, build, refuse)
        monkeypatch.setattr(groups, "generate_group", refuse)
        with pytest.raises(ResourceLimitError, match=f"{entries - 1}$"):
            make_standard_group(kind, 6)

    @pytest.mark.parametrize("kind", groups.STANDARD_GROUP_KINDS)
    def test_matches_every_rotation_and_reflection(self, kind):
        # 256 points is the largest closure stored as bytes, 258 the smallest
        # as tuples
        for points in [*range(2, 65, 2), 254, 256, 258]:
            assert make_standard_group(kind, points) == listed_standard_group(kind, points)

    @pytest.mark.parametrize(
        "kind,generators", [("identity", 0), ("cyclic", 1), ("dihedral", 2)]
    )
    def test_closed_through_the_module_global(self, monkeypatch, kind, generators):
        # the closure is looked up at call time, so a wrapper around
        # groups.generate_group sees every standard build
        calls = []
        closure = groups.generate_group

        def spy(gens, points):
            calls.append((len(gens), points))
            return closure(gens, points)

        monkeypatch.setattr(groups, "generate_group", spy)
        make_standard_group(kind, 8)
        assert calls == [(generators, 8)]


def listed_standard_group(kind, points):
    """The standard group built by listing each of its rotations and
    reflections, deduplicated and sorted by images."""
    elements = {GroupElement.identity(points)}
    if kind in ("cyclic", "dihedral"):
        elements.update(GroupElement.rotation(points, s) for s in range(points))
    if kind == "dihedral":
        elements.update(GroupElement.reflection(points, s) for s in range(points))
    return PermGroup(points, tuple(sorted(elements, key=lambda g: g.images)))


class TestGenerateGroup:
    def test_empty_generators(self):
        group = generate_group([], 6)
        assert group.order == 1
        assert group.elements[0].is_identity()

    def test_rotation_generates_cyclic(self):
        got = generate_group([GroupElement.rotation(6, 1)], 6)
        assert got == make_standard_group("cyclic", 6)

    def test_rotation_and_reflection_generate_dihedral(self):
        got = generate_group(
            [GroupElement.rotation(6, 1), GroupElement.reflection(6, 0)], 6
        )
        assert got == make_standard_group("dihedral", 6)

    def test_mixed_sizes_rejected(self):
        with pytest.raises(DomainError):
            generate_group([GroupElement.rotation(4, 1), GroupElement.rotation(6, 1)], 6)

    def test_closure_cap(self, monkeypatch):
        # S_4 has order 24; an entry bound of 10 elements of 4 points stops it
        gens = [
            GroupElement.from_images([1, 0, 2, 3]),
            GroupElement.from_images([1, 2, 3, 0]),
        ]
        monkeypatch.setattr(groups, "MAX_CLOSURE_ENTRIES", 10 * 4)
        with pytest.raises(ResourceLimitError):
            generate_group(gens, 4)
        monkeypatch.undo()
        assert generate_group(gens, 4).order == 24

    @pytest.mark.parametrize("points", [0, 1, 2])
    def test_no_generators_on_few_points(self, points):
        group = generate_group([], points)
        assert group.size == points
        assert group.elements == (GroupElement.identity(points),)

    def test_single_point(self):
        group = generate_group([GroupElement.identity(1)], 1)
        assert group.order == 1
        assert group.elements[0].images == (0,)

    def test_two_points(self):
        swap = GroupElement.from_images([1, 0])
        got = generate_group([swap], 2)
        assert got.elements == (GroupElement.identity(2), swap)
        assert got == make_standard_group("cyclic", 2)

    def test_entry_bound(self, monkeypatch):
        # S_4 stores 24 image tuples of 4 entries: 96 entries
        gens = [
            GroupElement.from_images([1, 0, 2, 3]),
            GroupElement.from_images([1, 2, 3, 0]),
        ]
        monkeypatch.setattr(groups, "MAX_CLOSURE_ENTRIES", 96)
        assert generate_group(gens, 4).order == 24
        monkeypatch.setattr(groups, "MAX_CLOSURE_ENTRIES", 95)
        with pytest.raises(ResourceLimitError, match="95 stored image entries"):
            generate_group(gens, 4)

    def test_closure_elements_skip_only_their_own_check(self):
        # the closure builds its elements without re-checking the bijections
        # it composed; every other way in still validates
        gens = [GroupElement.from_images([1, 0, 2, 3]), GroupElement.from_images([1, 2, 3, 0])]
        closed = generate_group(gens, 4).elements
        assert closed == tuple(GroupElement(g.images) for g in closed)
        assert all(pickle.loads(pickle.dumps(g)) == g for g in closed)
        with pytest.raises(DomainError):
            GroupElement((0, 0))
        swap = [g for g in closed if g.images == (1, 0, 2, 3)][0]
        data = pickle.dumps(swap, 0).replace(b"I1\n", b"I0\n")
        with pytest.raises(DomainError):
            pickle.loads(data)

    def test_entry_bound_before_the_identity(self):
        # a single identity tuple would already pass the bound: nothing is built
        points = groups.MAX_CLOSURE_ENTRIES + 2
        with pytest.raises(ResourceLimitError, match="stored image entries"):
            generate_group([], points)


def reference_closure(gens, points, cap):
    """Elements of the closure sorted by images, composing with
    GroupElement.compose; None once more than cap elements are found."""
    identity = GroupElement.identity(points)
    known = {identity}
    frontier = [identity]
    while frontier:
        current = frontier.pop()
        for g in gens:
            nxt = current.compose(g)
            if nxt not in known:
                known.add(nxt)
                if len(known) > cap:
                    return None
                frontier.append(nxt)
    return sorted(known, key=lambda g: g.images)


def reference_cycle_parts(g):
    """(length, multiplicity) pairs from each point's orbit length: a cycle
    of length l holds l points whose orbit length is l."""
    points_by_length = {}
    for v in range(g.size):
        length, w = 1, g(v)
        while w != v:
            length, w = length + 1, g(w)
        points_by_length[length] = points_by_length.get(length, 0) + 1
    return tuple(sorted((l, count // l) for l, count in points_by_length.items()))


permutations_up_to_8 = st.integers(1, 8).flatmap(
    lambda points: st.permutations(range(points))
)


@st.composite
def generator_sets(draw):
    points = draw(st.integers(1, 12))
    images = draw(st.lists(st.permutations(range(points)), max_size=3))
    return points, [GroupElement.from_images(p) for p in images]


@settings(max_examples=80, deadline=None)
@given(generator_sets())
def test_closure_matches_compose_reference(case):
    points, gens = case
    cap = 2000
    expected = reference_closure(gens, points, cap)
    # an entry bound of cap elements of `points` entries
    with patch.object(groups, "MAX_CLOSURE_ENTRIES", cap * points):
        if expected is None:
            with pytest.raises(ResourceLimitError):
                generate_group(gens, points)
        else:
            group = generate_group(gens, points)
            assert group.size == points
            assert list(group.elements) == expected


def conjugated_dihedral(points, seed):
    """A rotation and a reflection of the circle, relabelled by a random
    permutation: generators of a group of order 2 * points whose elements
    look random."""
    relabel = list(range(points))
    random.Random(seed).shuffle(relabel)
    sigma = GroupElement.from_images(relabel)
    return [
        sigma * g * sigma.inverse()
        for g in (GroupElement.rotation(points, 1), GroupElement.reflection(points, 0))
    ]


# 256 points is the largest closure stored as bytes, 258 the smallest as tuples
@pytest.mark.parametrize("points", [254, 256, 258])
@pytest.mark.parametrize("seed", [1, 2])
def test_closure_either_side_of_the_bytes_encoding(monkeypatch, points, seed):
    gens = conjugated_dihedral(points, seed)
    group = generate_group(gens, points)
    assert list(group.elements) == reference_closure(gens, points, 2 * points)
    assert all(type(g.images) is tuple for g in group.elements)
    monkeypatch.setattr(groups, "MAX_CLOSURE_ENTRIES", 2 * points * points)
    assert generate_group(gens, points) == group
    monkeypatch.setattr(groups, "MAX_CLOSURE_ENTRIES", 2 * points * points - 1)
    with pytest.raises(ResourceLimitError, match="stored image entries"):
        generate_group(gens, points)


@pytest.mark.parametrize(
    "points, generators",
    [
        # S_5 from (0 1) and (0 1 2 3 4)
        (5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]),
        # D_12 from the rotation and the reflection
        (12, [GroupElement.rotation(12, 1).images, GroupElement.reflection(12, 0).images]),
    ],
    ids=["S_5", "D_12"],
)
def test_closure_of_every_element_listed(points, generators):
    # a generator already reached is skipped, so listing the whole group in
    # any order gives the closure of its two generators
    rows = groups._closure_rows(generators, points)
    listed = sorted(map(tuple, rows))
    random.Random(points).shuffle(listed)
    assert groups._closure_rows(listed, points) == rows
    assert len(rows) == {5: 120, 12: 24}[points]


@settings(max_examples=150, deadline=None)
@given(permutations_up_to_8)
def test_cycle_type_matches_orbit_lengths(images):
    g = GroupElement.from_images(images)
    got = cycle_type_of(g)
    assert got.parts == reference_cycle_parts(g)
    # equal to an independently built, validated CycleType
    assert got == CycleType(reference_cycle_parts(g))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_repeated_cycle_types_are_equal(data):
    images = data.draw(permutations_up_to_8)
    g = GroupElement.from_images(images)
    relabel = GroupElement.from_images(data.draw(st.permutations(range(g.size))))
    # a conjugate has the same cycle type
    conjugate = relabel * g * relabel.inverse()
    first, second = cycle_type_of(g), cycle_type_of(conjugate)
    fresh = CycleType(reference_cycle_parts(g))
    assert first == second == fresh
    assert hash(first) == hash(second) == hash(fresh)
