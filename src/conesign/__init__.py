"""Exact computation of normal-cone cycles, local Euler obstructions,
Behrend-function values, and Hilbert-scheme tangent parities for affine
schemes presented by polynomial ideals over Q."""

from .behrend import (
    BehrendEvaluation,
    ComponentReport,
    ConstancyCertificate,
    behrend_value,
    constancy_falsifier,
    dominating_cone_multiplicity,
)
from .cones import (
    Cycle,
    CycleTerm,
    ConeComponent,
    cone_components,
    normal_cone_ideal,
    rees_ideal,
    signed_support_cycle,
)
from .errors import (
    BoundExceededError,
    ConesignError,
    DegenerateDrawError,
    EuUnsupportedError,
    InfiniteColengthError,
    PointNotOnVarietyError,
    PolynomialSyntaxError,
    PrimalityUndecidedError,
    RingMismatchError,
    UnknownVariableError,
)
from .euler import (
    EuVerdict,
    cone_over_curve_data,
    curve_multiplicity,
    eu_point,
)
from .groebner import (
    ModuleVector,
    buchberger,
    module_buchberger,
)
from .hilb import (
    PlanePartition,
    TangentReport,
    enumerate_plane_partitions,
    monomial_ideal_of,
    parity_scan,
    quot_tangent_dimension,
    tangent_dimension_hilb,
)
from .ideals import (
    IdealPresentation,
    PrimeComponent,
    colength,
    contains_ideal,
    dimension,
    eliminate,
    generic_tangent_dimension,
    ideal,
    is_point_on,
    jacobian,
    minimal_primes,
    radical_contains,
    saturate,
    tangent_dimension_at_point,
    transplant,
)
from .poly import (
    MonomialOrder,
    Polynomial,
    RingDescriptor,
    degrevlex,
    elimination_order,
    lex,
    parse_generators,
    parse_polynomial,
    ring,
)

__version__ = "0.1.0"
