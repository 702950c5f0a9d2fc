"""Integer arguments: every order, bound, divisor and thread count that a
function takes goes through one check, errors._require_int, which refuses a
value that is not an int, or is a bool, with DomainError."""

import pytest

from chorddia import burnside, classic, cli, closed_forms, diagrams, groups, oracle
from chorddia import ChordDiagram, DomainError, GroupElement, all_diagrams
from chorddia.errors import _require_int

CYCLIC_4 = groups.make_standard_group("cyclic", 4)
ROTATION_4 = GroupElement.rotation(4, 1)

# each call puts the value into one argument and keeps the others valid
CALLS = {
    "double_factorial": closed_forms.double_factorial,
    "diagram_count": closed_forms.diagram_count,
    "rotation_fixed_count n": lambda v: closed_forms.rotation_fixed_count(v, 1),
    "rotation_fixed_count i": lambda v: closed_forms.rotation_fixed_count(3, v),
    "cyclic_count": closed_forms.cyclic_count,
    "wreath_uniform_count n": lambda v: closed_forms.wreath_uniform_count(v, 1),
    "wreath_uniform_count i": lambda v: closed_forms.wreath_uniform_count(3, v),
    "partial_pairing_count": closed_forms.partial_pairing_count,
    "reflection_type_wreath_count": closed_forms.reflection_type_wreath_count,
    "dihedral_count": closed_forms.dihedral_count,
    "asymptotic_lower_bound": lambda v: closed_forms.asymptotic_lower_bound("cyclic", v),
    "catalan_noncrossing": classic.catalan_noncrossing,
    "crossing_polynomial": classic.crossing_polynomial,
    "_crossing_transfers": classic._crossing_transfers,
    "_strict_inclusion_exclusion": classic._strict_inclusion_exclusion,
    "strict_sequences": classic.strict_sequences,
    "falling_factorial a": lambda v: burnside.falling_factorial(v, 2),
    "falling_factorial k": lambda v: burnside.falling_factorial(5, v),
    "wreath_cycle_type_distribution": burnside.wreath_cycle_type_distribution,
    "burnside_count": lambda v: burnside.burnside_count(v, CYCLIC_4),
    "_wreath_class_sum": lambda v: burnside._wreath_class_sum(v, CYCLIC_4),
    "_generated_count": lambda v: burnside._generated_count(v, []),
    "euler_phi": groups.euler_phi,
    "divisors": groups.divisors,
    "partitions": lambda v: list(groups.partitions(v)),
    "make_standard_group": lambda v: groups.make_standard_group("cyclic", v),
    "all_diagrams": lambda v: list(all_diagrams(v)),
    "all_diagrams first_partner": lambda v: next(all_diagrams(3, v)),
    "matchings first_partner": lambda v: next(diagrams.matchings(6, v)),
    "from_chords size": lambda v: ChordDiagram.from_chords([], size=v),
    "from_json_dict n": lambda v: ChordDiagram.from_json_dict({"n": v, "chords": []}),
    "orbit_count n": lambda v: oracle.orbit_count(v, CYCLIC_4),
    "orbit_count threads": lambda v: oracle.orbit_count(2, CYCLIC_4, threads=v),
    "fixed_diagram_count": lambda v: oracle.fixed_diagram_count(v, ROTATION_4),
    "representatives": lambda v: oracle.representatives(v, CYCLIC_4),
    "crossing_distribution n": oracle.crossing_distribution,
    "crossing_distribution threads": lambda v: oracle.crossing_distribution(2, v),
    "strict_count": oracle.strict_count,
    "cli order": cli._require_order,
}


@pytest.mark.parametrize("value", [2.0, True, "3"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_refuses_what_is_not_an_int(call, value):
    with pytest.raises(DomainError):
        call(value)


@pytest.mark.parametrize(
    "call",
    [
        lambda: closed_forms.double_factorial(-3),
        lambda: burnside.falling_factorial(-1, 2),
        lambda: burnside.falling_factorial(5, -1),
        lambda: next(all_diagrams(3, 0)),
        lambda: next(all_diagrams(3, 6)),
    ],
    ids=["double_factorial", "falling_factorial a", "falling_factorial k",
         "first_partner 0", "first_partner size"],
)
def test_refuses_below_or_past_the_range(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("value", [0, -1, 1.0, False, None, "1"])
def test_require_int_refuses(value):
    with pytest.raises(DomainError, match=r"^n must be >= 1$"):
        _require_int(value, 1, "n must be >= 1")


@pytest.mark.parametrize("value", [1, 2, 10**30])
def test_require_int_returns_the_value(value):
    assert _require_int(value, 1, "n must be >= 1") is value
