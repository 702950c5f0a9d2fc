"""The value types: immutable records that compare, hash, print and pickle
by their fields, and validate what they are built from."""

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
        lambda: GroupElement(images=(0, 0)),
        lambda: GroupElement((1, 2)),
        lambda: ChordDiagram(partner=(1, 0, 2)),
        lambda: ChordDiagram((1, 0, 2, 3)),
        lambda: ChordDiagram((2, 3, 0, 1, 5, 5)),
    ],
    ids=["ct-unsorted", "ct-zero", "ct-duplicate", "ge-repeat", "ge-range",
         "cd-odd", "cd-fixed-point", "cd-not-involution"],
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


@pytest.mark.parametrize("cls,fields,text", CASES, ids=IDS)
def test_instances_have_only_their_fields(cls, fields, text):
    value = cls(**fields)
    assert not hasattr(value, "__dict__")
    assert cls.__slots__ == tuple(fields)
