"""Exact counting and enumeration of chord diagrams under symmetry groups.

A chord diagram of order n is a perfect matching of 2n points on a circle.
This package counts and lists the diagrams that are distinct up to the
action of a permutation group on the points (rotations, reflections, or an
arbitrary user-supplied group), along three mutually checking routes: a
general orbit-counting formula over cycle-type classes, closed forms for
the cyclic and dihedral cases, and an exhaustive enumeration oracle. The
classical whole-set counts (noncrossing diagrams, the crossing-number
distribution, strict diagrams) are included as well.
"""

import sys

__version__ = "0.1.0"

# Public name -> the submodule that defines it. A submodule is imported on
# first access (PEP 562), so each command loads only the modules it uses.
_EXPORTS = {
    **dict.fromkeys(
        (
            "WreathTypeDistribution",
            "burnside_count",
            "falling_factorial",
            "wreath_cycle_type_distribution",
        ),
        "burnside",
    ),
    **dict.fromkeys(
        (
            "CrossingPolynomial",
            "StrictSequences",
            "catalan_noncrossing",
            "crossing_polynomial",
            "strict_sequences",
        ),
        "classic",
    ),
    **dict.fromkeys(
        (
            "AsymptoticBound",
            "asymptotic_lower_bound",
            "cyclic_count",
            "diagram_count",
            "dihedral_count",
            "double_factorial",
            "fixed_matching_count",
            "partial_pairing_count",
            "reflection_type_wreath_count",
            "rotation_fixed_count",
            "wreath_uniform_count",
        ),
        "closed_forms",
    ),
    **dict.fromkeys(
        (
            "ChordDiagram",
            "all_diagrams",
            "apply_symmetry",
            "canonical_form",
            "crossings",
            "is_strict",
        ),
        "diagrams",
    ),
    **dict.fromkeys(("ConsistencyError", "DomainError", "ResourceLimitError"), "errors"),
    **dict.fromkeys(
        (
            "CycleType",
            "GroupElement",
            "PermGroup",
            "cycle_type_of",
            "divisors",
            "euler_phi",
            "generate_group",
            "make_standard_group",
            "partitions",
        ),
        "groups",
    ),
    **dict.fromkeys(
        (
            "OrbitSummary",
            "crossing_distribution",
            "fixed_diagram_count",
            "orbit_count",
            "representatives",
            "strict_count",
        ),
        "oracle",
    ),
    "render_svg": "svg",
}

__all__ = sorted(_EXPORTS)


def _submodule(name: str):
    # __import__ takes the interpreter's own import path, which
    # `python -X importtime` logs; importlib.import_module's is not logged
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    if name in _EXPORTS.values():
        # a submodule, as an eager `import chorddia` used to bind them all;
        # also how a handler's `from . import oracle` resolves it
        return _submodule(name)
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(_submodule(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_EXPORTS.values()})
