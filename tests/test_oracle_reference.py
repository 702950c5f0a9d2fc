"""The pruning oracle against brute force that never uses a walker hook.

Every reference here walks all (2n-1)!! diagrams with all_diagrams and
tests each one with the diagram-level functions (apply_symmetry,
canonical_form, crossings, is_strict), so a prune that drops a wanted
matching, or keeps an unwanted one, shows as a mismatch. The crossing and
strict paths count one diagram per dihedral orbit, weighted by the orbit
size; besides brute force they are compared with the per-matching walks,
with hooks, that those paths ran before.
"""

import math
from collections import Counter
from operator import itemgetter

import pytest
from hypothesis import given, settings

from chorddia import (
    DomainError,
    all_diagrams,
    apply_symmetry,
    canonical_form,
    crossing_distribution,
    crossings,
    fixed_diagram_count,
    is_strict,
    make_standard_group,
    orbit_count,
    representatives,
    strict_count,
)
from chorddia import diagrams, oracle
from chorddia.diagrams import _walk, matchings
from test_burnside import small_groups


def plain(walk):
    """The (partner, state) leaves of a walk with no table, reading each
    leaf as (partner, stabilizer, state): its stabilizer is empty."""
    for p, stabilizer, state in walk:
        assert stabilizer == []
        yield p, state


def _prefixes(size):
    """Every nonempty partial matching the walk reaches, as chord lists."""
    out = []
    for p in matchings(size):
        chords = [(v, w) for v, w in enumerate(p) if v < w]
        out += [tuple(chords[:k]) for k in range(1, len(chords) + 1)]
    return set(out)


def brute_representatives(n, group):
    return sorted({canonical_form(d, group).partner for d in all_diagrams(n)})


def brute_orbit_histogram(n, group):
    """Orbit sizes by closing each orbit with apply_symmetry."""
    seen = set()
    sizes = Counter()
    for d in all_diagrams(n):
        if d.partner in seen:
            continue
        orbit = {apply_symmetry(g, d).partner for g in group}
        seen |= orbit
        sizes[len(orbit)] += 1
    return dict(sorted(sizes.items()))


def brute_fixed_count(n, g):
    return sum(1 for d in all_diagrams(n) if apply_symmetry(g, d) == d)


def check_group(n, group):
    assert [d.partner for d in representatives(n, group)] == brute_representatives(n, group)
    summary = orbit_count(n, group)
    assert summary.orbit_size_histogram == brute_orbit_histogram(n, group)
    assert summary.orbit_count == sum(summary.orbit_size_histogram.values())
    for g in group:
        assert fixed_diagram_count(n, g) == brute_fixed_count(n, g)


class TestWalk:
    def test_no_hook_is_matchings(self):
        for size in (0, 2, 4, 6, 8):
            walked = [list(p) for p, state in plain(_walk(size, None, None, "s"))]
            assert walked == [list(p) for p in matchings(size)]

    def test_hook_sees_every_chord_in_order(self):
        # the state is the tuple of chords placed so far
        def place(partner, v, w, chords):
            assert partner[v] == w and partner[w] == v
            assert all(partner[u] >= 0 for u in range(v))
            return chords + ((v, w),)

        for partner, chords in plain(_walk(8, None, place, ())):
            assert list(chords) == [(v, w) for v, w in enumerate(partner) if v < w]

    def test_pruned_subtrees_are_skipped(self):
        def place(partner, v, w, state):
            return None if w - v == 3 else state

        walked = [tuple(p) for p, _ in plain(_walk(8, None, place, 0))]
        expected = [
            tuple(p) for p in matchings(8) if all(abs(v - w) != 3 for v, w in enumerate(p))
        ]
        assert walked == expected

    def test_first_chord_goes_through_the_hook(self):
        assert list(_walk(6, 2, lambda partner, v, w, s: None, 0)) == []
        branch = [tuple(p) for p, _ in plain(_walk(6, 2, lambda partner, v, w, s: s, 0))]
        assert branch == [tuple(p) for p in matchings(6, 2)]

    @pytest.mark.parametrize("size,first", [(5, None), (6, 0), (6, 6)])
    def test_matchings_errors(self, size, first):
        with pytest.raises(DomainError):
            list(matchings(size, first))

    @pytest.mark.parametrize("size,first", [(3, None), (4, 9)])
    def test_matchings_errors_at_the_first_next(self, size, first):
        # the stream is lazy: the call itself checks nothing
        stream = matchings(size, first)
        with pytest.raises(DomainError):
            next(stream)

    @staticmethod
    def recording(chords):
        def place(partner, v, w, state):
            chords.append((v, w))
            return state

        return place

    def test_size_two(self):
        for first in (None, 1):
            chords = []
            walked = [
                (list(p), s) for p, s in plain(_walk(2, first, self.recording(chords), "s"))
            ]
            assert walked == [([1, 0], "s")]
            assert chords == [(0, 1)]

    @pytest.mark.parametrize("first", [1, 2, 3])
    def test_size_four_root_chord_leaves_two(self, first):
        # the chord (0, first) leaves two points, so one level places the last
        chords = []
        walked = [tuple(p) for p, _ in plain(_walk(4, first, self.recording(chords), 0))]
        assert walked == [tuple(p) for p in matchings(4, first)]
        assert len(walked) == 1
        rest = [u for u in range(1, 4) if u != first]
        assert chords == [(0, first), tuple(rest)]

    @pytest.mark.parametrize("size", [2, 4, 6, 8])
    def test_no_hook_and_none_state_still_yields(self, size):
        # matchings() walks with place=None and state None; a forced last
        # chord must not read that None as a skipped subtree
        walked = [(tuple(p), s) for p, s in plain(_walk(size, None, None, None))]
        assert len(walked) == math.prod(range(1, size, 2))
        assert walked == [(tuple(p), None) for p, _ in plain(_walk(size, None, None, "s"))]

    @pytest.mark.parametrize("size", [4, 6, 8])
    def test_forced_chord_goes_through_the_hook(self, size):
        # rejecting every chord that leaves no point unmatched skips all
        def place(partner, v, w, state):
            return None if -1 not in partner else state

        assert list(_walk(size, None, place, 0)) == []
        for first in range(1, size):
            assert list(_walk(size, first, place, 0)) == []

    def test_hook_calls_count_every_chord_placed(self):
        # each partial matching reached is one call, the forced chord's too
        chords = []
        leaves = sum(1 for _ in _walk(8, None, self.recording(chords), 0))
        assert leaves == 105
        assert len(chords) == len(_prefixes(8)) == 7 + 7 * 5 + 105 + 105


def per_element_orderly_place(partner, v, w, tied):
    """The orbit paths' hook before the position-0 table: every element
    starts tied at position 0 and is compared one by one. A copy, not
    diagrams._orderly_advance, so that a change there cannot move the
    reference with it."""
    size = len(partner)
    kept = []
    for elem in tied:
        img, inv, r = elem
        if r != v and r != w and inv[r] != v and inv[r] != w:
            kept.append(elem)
            continue
        while r < size:
            a = partner[r]
            x = partner[inv[r]]
            if a < 0 or x < 0:
                kept.append((img, inv, r))
                break
            b = img[x]
            if b != a:
                if b < a:
                    return None
                break
            r += 1
        else:
            kept.append((img, inv, r))
    return kept


def reference_minima(size, elems):
    """Each orbit minimum with its stabilizer's images, from the per-element
    hook on the plain walk."""
    start = [(img, inv, 0) for img, inv in elems]
    return [
        (tuple(p), sorted(elem[0] for elem in stabilizer))
        for p, stabilizer in plain(_walk(size, None, per_element_orderly_place, start))
    ]


def table_minima(size, first, table):
    return [
        (tuple(p), sorted(elem[0] for elem in stabilizer))
        for p, stabilizer, _ in _walk(size, first, None, None, table)
    ]


def check_same_decisions(group):
    size = group.size
    elems = oracle._element_arrays(group)
    table = diagrams._position0_table(size, elems)
    if table is None:
        assert elems == []
        return
    expected = reference_minima(size, elems)
    assert table_minima(size, None, table) == expected
    # the branches that the oracle walks one by one partition the walk
    branches = [leaf for first in range(1, size) for leaf in table_minima(size, first, table)]
    assert branches == expected


@pytest.mark.parametrize("size", range(2, 13, 2))
def test_trivial_group_branch_walks_every_matching(size):
    # the trivial group has no table, and its branches walk as any group's
    # do: every matching is a minimum, each with an empty stabilizer
    group = make_standard_group("identity", size)
    table = diagrams._position0_table(size, oracle._element_arrays(group))
    assert table is None
    for first in range(1, size):
        def branch(keys):
            return oracle._walk_branch((size, first, table, None, None, keys))

        partners = branch(lambda walk: map(tuple, map(itemgetter(0), walk)))
        assert list(partners.items()) == [(tuple(p), 1) for p in matchings(size, first)]
        assert branch(oracle._stabilizer_sizes) == {0: len(partners)}


class TestPositionZeroTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("kind", ["cyclic", "dihedral"])
    def test_same_decisions_as_per_element(self, kind, n):
        check_same_decisions(make_standard_group(kind, 2 * n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("kind", ["cyclic", "dihedral"])
    def test_relabelled_same_decisions_as_per_element(self, kind, n):
        # the table walk that orbit_count runs
        check_same_decisions(oracle._relabelled(make_standard_group(kind, 2 * n)))

    def test_trivial_group_has_no_table(self):
        group = make_standard_group("identity", 8)
        assert diagrams._position0_table(8, oracle._element_arrays(group)) is None

    def test_entries(self):
        # on 4 points the rotation g = (0 1 2 3) maps 3 to 0; of the chords
        # {3, b} its image at position 0 is g(b)
        g = make_standard_group("cyclic", 4).elements[1]
        img, inv = g.images, g.inverse().images
        assert img == (1, 2, 3, 0)
        table = diagrams._position0_table(4, [(img, inv)])
        assert [table[3][b][0] for b in range(3)] == [1, 2, 3]
        assert table[0][3] is table[3][0]
        assert table[0][1] is None and table[1][2] is None
        # stored ready to compare at position 1
        assert table[3][1][1] == [(img, inv, 1)]

    def test_settle_compares_each_entry_with_p0(self):
        g = make_standard_group("cyclic", 4).elements[1]
        img, inv = g.images, g.inverse().images
        table = diagrams._position0_table(4, [(img, inv)])
        # p[0] = 2: the chord {3, 0} maps p[0] to 1 < 2, {3, 1} ties at 2,
        # {3, 2} maps it to 3 > 2, and no element settles {1, 2}
        settle = diagrams._position0_settle(table, 2)
        assert settle[3][0] == [] and settle[0][3] == []
        assert settle[3][1] == table[3][1][1]
        assert settle[3][2] is None and settle[1][2] is None


@settings(max_examples=60, deadline=None)
@given(small_groups(min_points=4, max_points=10))
def test_position_zero_table_on_random_groups(group):
    check_same_decisions(group)


class TestStandardGroups:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["identity", "cyclic", "dihedral"])
    def test_against_brute_force(self, kind, n):
        check_group(n, make_standard_group(kind, 2 * n))


class TestCrossingsAndStrict:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_crossing_histogram(self, n):
        histogram = Counter(crossings(d) for d in all_diagrams(n))
        expected = tuple(histogram.get(k, 0) for k in range(n * (n - 1) // 2 + 1))
        assert crossing_distribution(n).coefficients == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_strict_count(self, n):
        assert strict_count(n) == sum(1 for d in all_diagrams(n) if is_strict(d))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_dihedral_group_keeps_crossings_and_strictness(self, n):
        # the premise of counting once per dihedral orbit
        group = make_standard_group("dihedral", 2 * n)
        for d in all_diagrams(n):
            for g in group:
                image = apply_symmetry(g, d)
                assert crossings(image) == crossings(d)
                assert is_strict(image) == is_strict(d)


def _crossing_place(partner, v, w, crossings):
    # every matched point strictly inside (v, w) has its partner below v
    inside = partner[v + 1:w]
    return crossings + len(inside) - inside.count(-1)


def full_walk_crossings(n):
    """Crossing histogram counting every matching once, with no orbits."""
    counts = [0] * (n * (n - 1) // 2 + 1)
    for _, k in plain(_walk(2 * n, None, _crossing_place, 0)):
        counts[k] += 1
    return tuple(counts)


def full_walk_strict(n):
    """Strict matchings counted one by one, with no orbits."""
    size = 2 * n

    def place(partner, v, w, state):
        if w == v + 1 or (v == 0 and w == size - 1):
            return None
        return state

    return sum(1 for _ in _walk(size, None, place, True))


# strict classes for n = 1..7, counted by brute force over every matching
# (Krasko and Omelchenko 2017 count these as diagrams "without loops")
@pytest.mark.parametrize("kind, classes", [
    ("cyclic", [0, 1, 2, 7, 36, 300, 3218]),
    ("dihedral", [0, 1, 2, 7, 29, 196, 1788]),
])
def test_strictness_is_read_off_the_first_chord(kind, classes):
    # the census keys each D_2n minimum as strict iff partner[0] != 1
    for n, expected in enumerate(classes, start=1):
        reps = representatives(n, make_standard_group(kind, 2 * n))
        assert all(is_strict(rep) == (rep.partner[0] != 1) for rep in reps)
        assert sum(map(is_strict, reps)) == expected


class TestOrbitWeightedAgainstFullWalk:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_crossings(self, n):
        assert crossing_distribution(n).coefficients == full_walk_crossings(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_strict(self, n):
        assert strict_count(n) == full_walk_strict(n)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_one_leaf_per_dihedral_orbit(self, n, monkeypatch):
        # a walk that reaches every matching, or the minima of a smaller
        # group's orbits, gets the same totals but is not this path
        leaves = []

        def counting_walk(*args):
            for leaf in _walk(*args):
                leaves.append(tuple(leaf[0]))
                yield leaf

        monkeypatch.setattr(oracle, "_walk", counting_walk)
        group = make_standard_group("dihedral", 2 * n)
        crossing_distribution(n)
        assert leaves == brute_representatives(n, group)
        leaves.clear()
        # the strict count is read from the same census walk
        strict_count(n)
        assert leaves == brute_representatives(n, group)


class TestThreads:
    # pruning makes the branches unequal; dihedral orbits at n = 6 are in
    # test_oracle.py
    def test_cyclic_orbits(self):
        group = make_standard_group("cyclic", 12)
        assert orbit_count(6, group, threads=2) == orbit_count(6, group, threads=1)

    def test_crossings(self):
        assert crossing_distribution(6, threads=2) == crossing_distribution(6, threads=1)


@settings(max_examples=60, deadline=None)
@given(small_groups())
def test_random_groups_against_brute_force(group):
    check_group(group.size // 2, group)
