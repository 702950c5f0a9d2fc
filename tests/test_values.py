"""The value types: immutable records that compare, hash, print and pickle
by their fields, and validate what they are built from."""

import json
import pickle

import pytest

from chorddia import (
    AsymptoticBound,
    ChordDiagram,
    CrossingPolynomial,
    CycleType,
    DomainError,
    GroupElement,
    OrbitSummary,
    PermGroup,
    StrictSequences,
    WreathTypeDistribution,
    make_standard_group,
    orbit_count,
    representatives,
    wreath_cycle_type_distribution,
)

IDENTITY_2 = GroupElement((0, 1))
SWAP_2 = GroupElement((1, 0))

# (class, keyword fields, expected repr); the fields are in declaration order
CASES = [
    (CycleType, {"parts": ((1, 2),)}, "CycleType(parts=((1, 2),))"),
    (GroupElement, {"images": (1, 0)}, "GroupElement(images=(1, 0))"),
    (
        PermGroup,
        {"size": 2, "elements": (IDENTITY_2, SWAP_2)},
        "PermGroup(size=2, elements=(GroupElement(images=(0, 1)),"
        " GroupElement(images=(1, 0))))",
    ),
    (ChordDiagram, {"partner": (1, 0, 3, 2)}, "ChordDiagram(partner=(1, 0, 3, 2))"),
    (
        WreathTypeDistribution,
        {"n": 1, "entries": {CycleType(((1, 2),)): 1, CycleType(((2, 1),)): 1}},
        "WreathTypeDistribution(n=1, entries={CycleType(parts=((1, 2),)): 1,"
        " CycleType(parts=((2, 1),)): 1})",
    ),
    (
        CrossingPolynomial,
        {"n": 2, "coefficients": (2, 1)},
        "CrossingPolynomial(n=2, coefficients=(2, 1))",
    ),
    (
        StrictSequences,
        {"cumulative": (0, 1), "strict": (0, 1)},
        "StrictSequences(cumulative=(0, 1), strict=(0, 1))",
    ),
    (
        AsymptoticBound,
        {"kind": "cyclic", "n": 3, "numerator": 15, "denominator": 6, "exact_floor": 2},
        "AsymptoticBound(kind='cyclic', n=3, numerator=15, denominator=6, exact_floor=2)",
    ),
    (
        OrbitSummary,
        {"n": 2, "group_order": 4, "orbit_count": 2, "orbit_size_histogram": {2: 1, 4: 0}},
        "OrbitSummary(n=2, group_order=4, orbit_count=2,"
        " orbit_size_histogram={2: 1, 4: 0})",
    ),
]
IDS = [case[0].__name__ for case in CASES]

# classes with a dict field: like a tuple holding a dict, they do not hash
UNHASHABLE = {WreathTypeDistribution, OrbitSummary}


@pytest.mark.parametrize("cls,fields,text", CASES, ids=IDS)
def test_equality_and_hash(cls, fields, text):
    values = tuple(fields.values())
    a, b = cls(*values), cls(**fields)
    assert a == b and not a != b
    assert a != values and values != a
    assert a != (cls,) + values
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(values)
        assert len({a, b}) == 1


@pytest.mark.parametrize("cls,fields,text", CASES, ids=IDS)
def test_repr(cls, fields, text):
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("cls,fields,text", CASES, ids=IDS)
def test_fields_are_read_only(cls, fields, text):
    value = cls(**fields)
    for name, field in fields.items():
        assert getattr(value, name) is field
        with pytest.raises(AttributeError):
            setattr(value, name, field)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == cls(**fields)


@pytest.mark.parametrize("cls,fields,text", CASES, ids=IDS)
def test_pickle_round_trip(cls, fields, text):
    value = cls(**fields)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(value, protocol))
        assert type(copy) is cls
        assert copy == value
        assert repr(copy) == text


@pytest.mark.parametrize(
    "build",
    [
        lambda: CycleType(parts=((2, 1), (1, 1))),
        lambda: CycleType(((1, 0),)),
        lambda: CycleType(((2, 1), (2, 3))),
        # a length or multiplicity that is not exactly an int
        lambda: CycleType(((1.5, 2),)),
        lambda: CycleType(((2, True),)),
        lambda: CycleType(((2.0, 1),)),
        lambda: GroupElement(images=(0, 0)),
        lambda: GroupElement((1, 2)),
        lambda: ChordDiagram(partner=(1, 0, 2)),
        lambda: ChordDiagram((1, 0, 2, 3)),
        lambda: ChordDiagram((2, 3, 0, 1, 5, 5)),
        # an entry whose type is not exactly int, a bool included
        lambda: GroupElement((1.0, 0)),
        lambda: GroupElement((True, False)),
        lambda: GroupElement(("a", 0)),
        lambda: ChordDiagram((1.0, 0)),
        lambda: ChordDiagram((True, False)),
        # from_chords checks its size and the endpoints' types itself
        lambda: ChordDiagram.from_chords([], size=-2),
        lambda: ChordDiagram.from_chords([], size=2.0),
        lambda: ChordDiagram.from_chords([], size=True),
        lambda: ChordDiagram.from_chords([(0.0, 1)]),
        lambda: ChordDiagram.from_chords([(0, True)]),
        # a group with no element, or one whose elements are not
        # GroupElements of its own number of points
        lambda: PermGroup(4, ()),
        lambda: PermGroup(4, (GroupElement.identity(6), GroupElement.rotation(6, 1))),
        lambda: PermGroup(2, ((0, 1),)),
        lambda: PermGroup(2, [IDENTITY_2]),
        lambda: PermGroup(2.0, (IDENTITY_2,)),
        # a set that is not closed under composition: the identity and a
        # rotation of order 6, whose counts both read 8 where C_6 has 5
        lambda: PermGroup(6, (GroupElement.identity(6), GroupElement.rotation(6, 1))),
        # an element listed twice
        lambda: PermGroup(2, (IDENTITY_2, SWAP_2, SWAP_2)),
    ],
    ids=["ct-unsorted", "ct-zero", "ct-duplicate", "ct-float", "ct-bool", "ct-whole-float",
         "ge-repeat", "ge-range",
         "cd-odd", "cd-fixed-point", "cd-not-involution", "ge-float", "ge-bool",
         "ge-str", "cd-float", "cd-bool", "fc-negative-size", "fc-float-size",
         "fc-bool-size", "fc-float-endpoint", "fc-bool-endpoint",
         "pg-empty", "pg-other-size", "pg-not-element", "pg-list", "pg-float-size",
         "pg-not-closed", "pg-duplicate"],
)
def test_invalid_input_is_domain_error(build):
    with pytest.raises(DomainError):
        build()


def test_unpickling_validates():
    # the pickle holds the fields and calls the class, so a tampered
    # stream is refused like any other bad input
    data = pickle.dumps(GroupElement((1, 0)), 0).replace(b"I1\n", b"I0\n")
    with pytest.raises(DomainError):
        pickle.loads(data)


@pytest.mark.parametrize(
    "value,old,new",
    [
        (CycleType(((1, 2),)), b"I2\n", b"I0\n"),
        (ChordDiagram((1, 0, 3, 2)), b"I3\n", b"I2\n"),
    ],
    ids=["CycleType", "ChordDiagram"],
)
def test_unpickling_validates_every_checked_type(value, old, new):
    data = pickle.dumps(value, 0)
    assert data.count(old) == 1
    with pytest.raises(DomainError):
        pickle.loads(data.replace(old, new))


def test_internal_builders_check_nothing(tmp_path, monkeypatch):
    # a value derived from checked values is bound by Record._unchecked, so
    # building groups, walking them and the wreath table check nothing again
    from chorddia import cli, oracle
    from chorddia.groups import STANDARD_GROUP_KINDS

    path = tmp_path / "s4.json"
    # S_4 on points 1..4 of 6
    path.write_text(json.dumps({"points": 6, "elements": [[2, 1, 3, 4, 5, 6], [2, 3, 4, 1, 5, 6]]}))

    def refuse(self):
        raise AssertionError(f"a {type(self).__name__} was checked")

    for cls in (GroupElement, PermGroup, CycleType):
        monkeypatch.setattr(cls, "_check", refuse)
    built = {kind: make_standard_group(kind, 6) for kind in STANDARD_GROUP_KINDS}
    built["S_4"] = cli.load_group_file(str(path))
    orbits = {"identity": 15, "cyclic": 5, "dihedral": 5, "S_4": 2}
    for kind, group in built.items():
        assert orbit_count(3, group).orbit_count == orbits[kind]
        assert len(representatives(3, group)) == orbits[kind]
        g, h = group.elements[-1], group.elements[len(group) // 2]
        assert g.compose(g.inverse()).is_identity()
        assert g.compose(h) in group.elements
    relabelled = oracle._relabelled(built["dihedral"])
    assert relabelled is not built["dihedral"] and relabelled.order == 12
    assert wreath_cycle_type_distribution(6).total == 2**6 * 720


@pytest.mark.parametrize("cls,fields,text", CASES, ids=IDS)
def test_fields_bind_by_position_or_name(cls, fields, text):
    # Record's one constructor binds every value type
    assert "__init__" not in vars(cls)
    # the first field by position and the rest by name, in any order
    first, *rest = fields.items()
    mixed = cls(first[1], **dict(reversed(rest)))
    assert mixed == cls(*fields.values()) == cls(**fields)
    assert repr(mixed) == text


@pytest.mark.parametrize("cls,fields,text", CASES, ids=IDS)
def test_bad_binding_is_type_error(cls, fields, text):
    values = tuple(fields.values())
    first = next(iter(fields))
    rest = {name: value for name, value in fields.items() if name != first}
    last = tuple(fields)[-1]
    with pytest.raises(TypeError, match=f"missing field {last!r}"):
        cls(*values[:-1])
    with pytest.raises(TypeError, match=f"missing field {first!r}"):
        cls(**rest)
    with pytest.raises(TypeError, match="unexpected field 'extra'"):
        cls(*values, extra=1)
    with pytest.raises(TypeError, match=f"got field {first!r} twice"):
        cls(*values, **{first: values[0]})
    with pytest.raises(TypeError, match=f"takes {len(values)} fields but {len(values) + 1}"):
        cls(*values, values[0])


@pytest.mark.parametrize("cls,fields,text", CASES, ids=IDS)
def test_instances_have_only_their_fields(cls, fields, text):
    value = cls(**fields)
    assert not hasattr(value, "__dict__")
    assert cls.__slots__ == tuple(fields)
