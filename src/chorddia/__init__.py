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

from .burnside import (
    WreathTypeDistribution,
    burnside_count,
    falling_factorial,
    wreath_cycle_type_distribution,
)
from .classic import (
    CrossingPolynomial,
    StrictSequences,
    catalan_noncrossing,
    crossing_polynomial,
    strict_sequences,
)
from .closed_forms import (
    AsymptoticBound,
    asymptotic_lower_bound,
    cyclic_count,
    diagram_count,
    dihedral_count,
    double_factorial,
    fixed_matching_count,
    partial_pairing_count,
    reflection_type_wreath_count,
    rotation_fixed_count,
    wreath_uniform_count,
)
from .diagrams import (
    ChordDiagram,
    all_diagrams,
    apply_symmetry,
    canonical_form,
    crossings,
    is_strict,
)
from .errors import ConsistencyError, DomainError, ResourceLimitError
from .groups import (
    CycleType,
    GroupElement,
    PermGroup,
    cycle_type_of,
    divisors,
    euler_phi,
    generate_group,
    make_standard_group,
    partitions,
)
from .oracle import (
    OrbitSummary,
    crossing_distribution,
    fixed_diagram_count,
    orbit_count,
    representatives,
    strict_count,
)
from .svg import render_svg

__version__ = "0.1.0"

__all__ = [
    "AsymptoticBound",
    "ChordDiagram",
    "ConsistencyError",
    "CrossingPolynomial",
    "CycleType",
    "DomainError",
    "GroupElement",
    "OrbitSummary",
    "PermGroup",
    "ResourceLimitError",
    "StrictSequences",
    "WreathTypeDistribution",
    "all_diagrams",
    "apply_symmetry",
    "asymptotic_lower_bound",
    "burnside_count",
    "canonical_form",
    "catalan_noncrossing",
    "crossing_distribution",
    "crossing_polynomial",
    "crossings",
    "cycle_type_of",
    "cyclic_count",
    "diagram_count",
    "dihedral_count",
    "divisors",
    "double_factorial",
    "euler_phi",
    "falling_factorial",
    "fixed_diagram_count",
    "fixed_matching_count",
    "generate_group",
    "is_strict",
    "make_standard_group",
    "orbit_count",
    "partial_pairing_count",
    "partitions",
    "reflection_type_wreath_count",
    "render_svg",
    "representatives",
    "rotation_fixed_count",
    "strict_count",
    "strict_sequences",
    "wreath_cycle_type_distribution",
    "wreath_uniform_count",
]
