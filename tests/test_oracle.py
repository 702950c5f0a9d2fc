import pytest

from chorddia import (
    ChordDiagram,
    DomainError,
    GroupElement,
    ResourceLimitError,
    crossing_distribution,
    cycle_type_of,
    cyclic_count,
    diagram_count,
    dihedral_count,
    fixed_diagram_count,
    make_standard_group,
    orbit_count,
    representatives,
    rotation_fixed_count,
    strict_count,
)
from chorddia.oracle import enumeration_cap


@pytest.fixture(scope="module")
def summaries():
    cache = {}

    def get(n, kind):
        key = (n, kind)
        if key not in cache:
            cache[key] = orbit_count(n, make_standard_group(kind, 2 * n))
        return cache[key]

    return get


class TestOrbitCount:
    def test_cyclic_example(self, summaries):
        assert summaries(3, "cyclic").orbit_count == 5

    def test_cyclic_n4(self, summaries):
        assert summaries(4, "cyclic").orbit_count == 18

    def test_dihedral_small(self, summaries):
        assert summaries(2, "dihedral").orbit_count == 2

    def test_histogram_mass_and_divisibility(self, summaries):
        for n in (2, 3, 4, 5):
            for kind in ("identity", "cyclic", "dihedral"):
                summary = summaries(n, kind)
                hist = summary.orbit_size_histogram
                assert sum(size * k for size, k in hist.items()) == diagram_count(n)
                assert sum(hist.values()) == summary.orbit_count
                assert all(summary.group_order % size == 0 for size in hist)

    def test_matches_closed_forms(self, summaries):
        for n in range(1, 6):
            assert summaries(n, "cyclic").orbit_count == cyclic_count(n)
            assert summaries(n, "dihedral").orbit_count == dihedral_count(n)
            assert summaries(n, "identity").orbit_count == diagram_count(n)

    def test_burnside_consistency(self):
        # average fixed-point count over the group == orbit count
        for n in range(1, 7):
            for kind in ("identity", "cyclic", "dihedral"):
                group = make_standard_group(kind, 2 * n)
                total = sum(fixed_diagram_count(n, g) for g in group)
                quotient, remainder = divmod(total, group.order)
                assert remainder == 0
                assert quotient == orbit_count(n, group).orbit_count

    def test_threads_agree(self):
        group = make_standard_group("dihedral", 12)
        solo = orbit_count(6, group, threads=1)
        multi = orbit_count(6, group, threads=2)
        assert solo == multi

    def test_size_mismatch(self):
        with pytest.raises(DomainError):
            orbit_count(3, make_standard_group("cyclic", 8))

    def test_nontrivial_stabilizer_fraction_shrinks(self, summaries):
        fractions = []
        for n in range(3, 9):
            summary = summaries(n, "cyclic")
            small = sum(
                size * k
                for size, k in summary.orbit_size_histogram.items()
                if size < 2 * n
            )
            fractions.append(small / diagram_count(n))
        assert fractions == sorted(fractions, reverse=True)


class TestFixedDiagramCount:
    def test_identity_fixes_all(self):
        assert fixed_diagram_count(3, GroupElement.identity(6)) == 15

    def test_half_turn(self):
        g = GroupElement.rotation(6, 3)  # cycle type 2^3
        assert fixed_diagram_count(3, g) == 7
        assert rotation_fixed_count(3, 2) == 7

    def test_order_three_rotation(self):
        g = GroupElement.rotation(6, 2)  # cycle type 3^2
        assert fixed_diagram_count(3, g) == 3
        assert rotation_fixed_count(3, 3) == 3

    def test_all_rotations_match_closed_form(self):
        for n in range(1, 6):
            for g in make_standard_group("cyclic", 2 * n):
                assert fixed_diagram_count(n, g) == rotation_fixed_count(n, g.order())

    def test_depends_only_on_cycle_type(self):
        for n in (3, 4, 5):
            by_type = {}
            for g in make_standard_group("dihedral", 2 * n):
                count = fixed_diagram_count(n, g)
                key = cycle_type_of(g)
                assert by_type.setdefault(key, count) == count


class TestRepresentatives:
    def test_counts(self):
        assert len(representatives(3, make_standard_group("cyclic", 6))) == 5
        assert len(representatives(4, make_standard_group("cyclic", 8))) == 18
        assert len(representatives(4, make_standard_group("dihedral", 8))) == 17

    def test_single_chord(self):
        reps = representatives(1, make_standard_group("identity", 2))
        assert reps == [ChordDiagram((1, 0))]

    def test_sorted_and_canonical(self):
        group = make_standard_group("cyclic", 8)
        reps = representatives(4, group)
        arrays = [d.partner for d in reps]
        assert arrays == sorted(arrays)
        from chorddia import canonical_form

        assert all(canonical_form(d, group) == d for d in reps)


class TestCrossingDistribution:
    @pytest.mark.parametrize(
        "n,expected", [(1, (1,)), (2, (2, 1)), (3, (5, 6, 3, 1))]
    )
    def test_examples(self, n, expected):
        assert crossing_distribution(n).coefficients == expected

    def test_threads_agree(self):
        assert (
            crossing_distribution(5, threads=2).coefficients
            == crossing_distribution(5).coefficients
        )


class TestStrictCount:
    @pytest.mark.parametrize("n,expected", [(1, 0), (2, 1), (3, 4)])
    def test_examples(self, n, expected):
        assert strict_count(n) == expected


class TestCap:
    def test_default_cap(self, monkeypatch):
        monkeypatch.delenv("CHORDDIA_ORACLE_CAP", raising=False)
        assert enumeration_cap() == 8
        with pytest.raises(ResourceLimitError):
            strict_count(9)

    def test_env_override_with_hard_max(self, monkeypatch):
        monkeypatch.setenv("CHORDDIA_ORACLE_CAP", "20")
        assert enumeration_cap() == 9

    def test_env_can_lower(self, monkeypatch):
        monkeypatch.setenv("CHORDDIA_ORACLE_CAP", "3")
        with pytest.raises(ResourceLimitError):
            strict_count(4)
        assert strict_count(3) == 4

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv("CHORDDIA_ORACLE_CAP", "many")
        with pytest.raises(DomainError):
            strict_count(2)


class TestDihedralCensus:
    # verify's one walk of the D_2n orbit minima in place of five
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_equals_the_three_walks(self, n, threads):
        from chorddia.classic import (
            CrossingPolynomial,
            _crossing_transfers,
            _strict_inclusion_exclusion,
        )
        from chorddia.oracle import _dihedral_census

        group = make_standard_group("dihedral", 2 * n)
        # crossing_distribution and strict_count read the census, so the
        # crossings are checked against the transfer count and the strict
        # count against inclusion-exclusion, neither of which walks a matching
        assert _dihedral_census(n, threads)[2:] == (
            orbit_count(n, group, threads=threads),
            CrossingPolynomial(n, _crossing_transfers(n)[-1]),
            _strict_inclusion_exclusion(n),
        )

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_identity_and_cyclic_equal_their_walks(self, n, threads):
        # verify reads these two summaries from the D_2n census alone, so
        # they are checked against walks over the groups themselves
        from chorddia.oracle import _dihedral_census

        census = _dihedral_census(n, threads)
        for kind, derived in zip(("identity", "cyclic"), census):
            walked = orbit_count(n, make_standard_group(kind, 2 * n), threads=threads)
            assert derived == walked, kind
            # the histogram lists orbit sizes in the same ascending order
            assert list(derived.orbit_size_histogram) == list(walked.orbit_size_histogram)

    def test_cap(self, monkeypatch):
        from chorddia.oracle import _dihedral_census

        monkeypatch.setenv("CHORDDIA_ORACLE_CAP", "3")
        with pytest.raises(ResourceLimitError):
            _dihedral_census(4)
