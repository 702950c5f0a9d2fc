import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chorddia import (
    ChordDiagram,
    DomainError,
    GroupElement,
    all_diagrams,
    apply_symmetry,
    canonical_form,
    crossings,
    diagram_count,
    is_strict,
    make_standard_group,
)
from chorddia.diagrams import matchings
from test_burnside import small_groups


def diagram(*chords_1b):
    return ChordDiagram.from_chords([(a - 1, b - 1) for a, b in chords_1b])


def chords_1b(d):
    return [(a + 1, b + 1) for a, b in d.chords()]


def random_diagram(rng, n):
    points = list(range(2 * n))
    rng.shuffle(points)
    return ChordDiagram.from_chords(list(zip(points[::2], points[1::2])), size=2 * n)


class TestChordDiagram:
    def test_rejects_fixed_points(self):
        with pytest.raises(DomainError):
            ChordDiagram((0, 1, 2, 3))

    def test_rejects_non_involution(self):
        with pytest.raises(DomainError):
            ChordDiagram((1, 2, 0, 3))

    def test_rejects_odd_size(self):
        with pytest.raises(DomainError):
            ChordDiagram.from_chords([(0, 1)], size=3)

    def test_chords_sorted(self):
        d = diagram((1, 4), (2, 5), (3, 6))
        assert d.chords() == [(0, 3), (1, 4), (2, 5)]

    def test_json_round_trip(self):
        d = diagram((1, 6), (2, 4), (3, 5))
        obj = d.to_json_dict()
        assert obj == {"n": 3, "chords": [[1, 6], [2, 4], [3, 5]]}
        assert ChordDiagram.from_json_dict(obj) == d

    def test_json_rejects_garbage(self):
        with pytest.raises(DomainError):
            ChordDiagram.from_json_dict({"n": 2})

    @pytest.mark.parametrize(
        "obj",
        [
            {"n": 2.7, "chords": [[1, 2], [3, 4]]},
            {"n": True, "chords": [[1.9, 2]]},
            {"n": "2", "chords": [["1", "2"], [3, 4]]},
            {"n": 2, "chords": [[1, 2], [3.0, 4]]},
            {"n": 1, "chords": [[True, 2]]},
            {"n": -1, "chords": []},
        ],
    )
    def test_json_refuses_what_is_not_an_int(self, obj):
        # n and every endpoint must be an int (not a bool), never coerced
        with pytest.raises(DomainError):
            ChordDiagram.from_json_dict(obj)


class TestApplySymmetry:
    def test_identity(self):
        d = diagram((1, 3), (2, 4))
        assert apply_symmetry(GroupElement.identity(4), d) == d

    def test_rotation(self):
        d = diagram((1, 2), (3, 4), (5, 6))
        got = apply_symmetry(GroupElement.rotation(6, 1), d)
        assert chords_1b(got) == [(1, 6), (2, 3), (4, 5)]

    def test_reflection(self):
        # endpoint map v -> -v (mod 6) sends chords (0,1)(2,3)(4,5)
        # to (0,5)(3,4)(1,2)
        d = diagram((1, 2), (3, 4), (5, 6))
        got = apply_symmetry(GroupElement.reflection(6, 0), d)
        assert chords_1b(got) == [(1, 6), (2, 3), (4, 5)]

    def test_reflection_asymmetric(self):
        d = diagram((1, 2), (3, 5), (4, 6))
        got = apply_symmetry(GroupElement.reflection(6, 0), d)
        assert chords_1b(got) == [(1, 6), (2, 4), (3, 5)]

    def test_matches_endpointwise_oracle(self):
        rng = random.Random(7)
        for _ in range(25):
            d = random_diagram(rng, 4)
            g = random.Random(rng.random()).choice(
                make_standard_group("dihedral", 8).elements
            )
            expected = sorted(
                tuple(sorted((g(a), g(b)))) for a, b in d.chords()
            )
            assert [tuple(c) for c in apply_symmetry(g, d).chords()] == expected

    def test_size_mismatch(self):
        with pytest.raises(DomainError):
            apply_symmetry(GroupElement.identity(6), diagram((1, 3), (2, 4)))

    def test_group_action_property(self):
        rng = random.Random(11)
        group = make_standard_group("dihedral", 8)
        for _ in range(10):
            d = random_diagram(rng, 4)
            for g in group:
                for h in group:
                    assert apply_symmetry(g * h, d) == apply_symmetry(
                        g, apply_symmetry(h, d)
                    )


class TestCanonicalForm:
    def test_all_diameters_is_canonical(self):
        d = diagram((1, 4), (2, 5), (3, 6))
        assert canonical_form(d, make_standard_group("cyclic", 6)) == d

    def test_adjacent_chords_are_canonical(self):
        d = diagram((1, 2), (3, 4), (5, 6))
        assert canonical_form(d, make_standard_group("cyclic", 6)) == d

    def test_identity_group_is_noop(self):
        d = diagram((1, 5), (2, 3), (4, 6))
        assert canonical_form(d, make_standard_group("identity", 6)) == d

    def test_invariance_and_idempotence(self):
        rng = random.Random(3)
        group = make_standard_group("dihedral", 8)
        for _ in range(20):
            d = random_diagram(rng, 4)
            canon = canonical_form(d, group)
            assert canonical_form(canon, group) == canon
            for g in group:
                assert canonical_form(apply_symmetry(g, d), group) == canon

    def test_is_orbit_minimum(self):
        rng = random.Random(5)
        group = make_standard_group("cyclic", 10)
        for _ in range(10):
            d = random_diagram(rng, 5)
            canon = canonical_form(d, group)
            orbit = [apply_symmetry(g, d).partner for g in group]
            assert canon.partner == min(orbit)


class TestAllDiagrams:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (5, 945)])
    def test_counts(self, n, count):
        assert sum(1 for _ in all_diagrams(n)) == count

    def test_matches_double_factorial(self):
        for n in range(1, 7):
            assert sum(1 for _ in all_diagrams(n)) == diagram_count(n)

    def test_no_duplicates(self):
        for n in range(1, 6):
            seen = [d.partner for d in all_diagrams(n)]
            assert len(set(seen)) == len(seen)

    def test_lexicographic_order(self):
        for n in (2, 3, 4):
            arrays = [d.partner for d in all_diagrams(n)]
            assert arrays == sorted(arrays)

    def test_n2_order_frozen(self):
        got = [chords_1b(d) for d in all_diagrams(2)]
        assert got == [
            [(1, 2), (3, 4)],
            [(1, 3), (2, 4)],
            [(1, 4), (2, 3)],
        ]

    def test_first_partner_partitions_stream(self):
        n = 4
        full = [d.partner for d in all_diagrams(n)]
        pieces = []
        for first in range(1, 2 * n):
            pieces += [d.partner for d in all_diagrams(n, first_partner=first)]
        assert sorted(pieces) == full

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            next(all_diagrams(0))

    def test_matchings_buffer_is_shared(self):
        streams = matchings(4)
        first = next(streams)
        snapshot = list(first)
        next(streams)
        assert first != snapshot  # documented: callers must copy


class TestCrossings:
    @pytest.mark.parametrize(
        "chords,expected",
        [
            ([(1, 2), (3, 4)], 0),
            ([(1, 3), (2, 4)], 1),
            ([(1, 4), (2, 5), (3, 6)], 3),
        ],
    )
    def test_examples(self, chords, expected):
        assert crossings(diagram(*chords)) == expected

    def test_total_mass(self):
        n = 4
        hist = {}
        for d in all_diagrams(n):
            hist[crossings(d)] = hist.get(crossings(d), 0) + 1
        assert sum(hist.values()) == diagram_count(n)
        assert all(v > 0 for v in hist.values())
        assert max(hist) == n * (n - 1) // 2


class TestIsStrict:
    @pytest.mark.parametrize(
        "chords,expected",
        [
            ([(1, 2), (3, 4)], False),
            ([(1, 3), (2, 4)], True),
            ([(1, 6), (2, 4), (3, 5)], False),  # 6 and 1 adjacent by wraparound
        ],
    )
    def test_examples(self, chords, expected):
        assert is_strict(diagram(*chords)) is expected


def diagrams_on(points):
    """Random chord diagrams on the given even number of points: a shuffled
    point list paired off two by two."""
    return st.permutations(range(points)).map(
        lambda order: ChordDiagram.from_chords(list(zip(order[::2], order[1::2])))
    )


diagrams_up_to_5 = st.integers(1, 5).flatmap(lambda n: diagrams_on(2 * n))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_apply_symmetry_is_a_homomorphism(data):
    d = data.draw(diagrams_up_to_5)
    g, h = (
        GroupElement.from_images(data.draw(st.permutations(range(d.size))))
        for _ in range(2)
    )
    assert apply_symmetry(g * h, d) == apply_symmetry(g, apply_symmetry(h, d))


@settings(max_examples=60, deadline=None)
@given(small_groups(), st.data())
def test_canonical_form_is_constant_on_orbits(group, data):
    d = data.draw(diagrams_on(group.size))
    g = data.draw(st.sampled_from(group.elements))
    canon = canonical_form(d, group)
    assert canonical_form(apply_symmetry(g, d), group) == canon
    assert canon.partner <= d.partner


@settings(max_examples=100, deadline=None)
@given(diagrams_up_to_5)
def test_json_round_trip_random(d):
    obj = json.loads(json.dumps(d.to_json_dict()))
    assert ChordDiagram.from_json_dict(obj) == d
