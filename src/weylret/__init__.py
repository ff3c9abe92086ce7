"""Retractions onto subsets of classical Weyl groups, matroid-property
verification along three independent routes, and the coarsened chamber
fans those retractions induce.

The names below are re-exported from their modules on first access
(PEP 562), so `import weylret` loads no submodule, and only the order
route's kernels (`weylret.order`) load numpy."""

from importlib import import_module

_EXPORTS = {
    "errors": (
        "AmbiguousBoundary",
        "BoundaryPoint",
        "DescriptorMismatch",
        "EnumerationCapExceeded",
        "GiveUp",
        "InconsistentLineality",
        "NotAMatroidAt",
        "NotAProduct",
        "ParseError",
        "PreconditionError",
        "SingularMatrix",
        "TieDetected",
        "WeylretError",
    ),
    "exact": (
        "Facet",
        "Hull",
        "Membership",
        "RationalMatrix",
        "certifies_edge",
        "cone_membership",
        "format_rational",
        "hull_edges",
        "lp_edge_feasible",
        "nullspace_basis",
        "parse_rational",
    ),
    "fan": ("Fan", "FanCone", "QueryResult", "build_fan", "query"),
    "matroid": (
        "MatroidVerdict",
        "PhiReport",
        "TwoElementReport",
        "bruhat_interval",
        "fano_matroid_s7",
        "flag_order_leq",
        "is_coxeter_matroid",
        "orbit_points",
        "phi_polytope_check",
        "set_order_leq",
        "two_element_analysis",
    ),
    "orbit": (
        "PluckerSupport",
        "fixed_points",
        "geometric_table",
        "limit_point",
        "plucker_support",
        "sample_rational_point",
        "weight_for_chamber",
    ),
    "retraction": (
        "RetractionTable",
        "SubsetM",
        "algebraic_retract",
        "closest_set",
        "matroid_retract",
        "retraction_table",
    ),
    "weyl": (
        "Factor",
        "GroupDescriptor",
        "SignedPermutation",
        "WeylType",
        "act_on_vector",
        "bruhat_leq",
        "chamber_of",
        "compose",
        "default_base_point",
        "elements",
        "enumerate_group",
        "inverse",
        "length",
        "longest_element",
        "metric",
        "order_key",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))
