"""Retractions onto subsets of classical Weyl groups, matroid-property
verification along three independent routes, and the coarsened chamber
fans those retractions induce."""

from .errors import (
    AmbiguousBoundary,
    BoundaryPoint,
    DescriptorMismatch,
    EnumerationCapExceeded,
    GiveUp,
    InconsistentLineality,
    NotAMatroidAt,
    NotAProduct,
    ParseError,
    PreconditionError,
    SingularMatrix,
    TieDetected,
    WeylretError,
)
from .exact import (
    Facet,
    Hull,
    Membership,
    RationalMatrix,
    certifies_edge,
    cone_membership,
    format_rational,
    hull_edges,
    lp_edge_feasible,
    nullspace_basis,
    parse_rational,
)
from .fan import Fan, FanCone, QueryResult, build_fan, query
from .matroid import (
    MatroidVerdict,
    PhiReport,
    TwoElementReport,
    bruhat_interval,
    default_base_point,
    fano_matroid_s7,
    flag_order_leq,
    is_coxeter_matroid,
    orbit_points,
    phi_polytope_check,
    set_order_leq,
    two_element_analysis,
)
from .orbit import (
    PluckerSupport,
    fixed_points,
    geometric_table,
    limit_point,
    plucker_support,
    sample_rational_point,
    weight_for_chamber,
)
from .retraction import (
    RetractionTable,
    SubsetM,
    algebraic_retract,
    closest_set,
    matroid_retract,
    retraction_table,
)
from .weyl import (
    Factor,
    GroupDescriptor,
    SignedPermutation,
    WeylType,
    act_on_vector,
    bruhat_leq,
    chamber_of,
    compose,
    elements,
    enumerate_group,
    inverse,
    length,
    longest_element,
    metric,
    order_key,
)

__version__ = "0.1.0"
