"""What importing the package loads.

The package root re-exports its public names on first access, and numpy
is imported by the order route's kernels (`weylret.order`) alone, so the
commands that never run the order route start without it.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylret

ROOT = Path(__file__).resolve().parents[1]

# every name the package root exports, by the module that defines it
EXPORTS = {
    "errors": "AmbiguousBoundary BoundaryPoint DescriptorMismatch EnumerationCapExceeded GiveUp "
    "InconsistentLineality NotAMatroidAt NotAProduct ParseError PreconditionError SingularMatrix "
    "TieDetected WeylretError",
    "exact": "Facet Hull Membership RationalMatrix certifies_edge cone_membership format_rational "
    "hull_edges lp_edge_feasible nullspace_basis parse_rational",
    "fan": "Fan FanCone QueryResult build_fan query",
    "matroid": "MatroidVerdict PhiReport TwoElementReport bruhat_interval fano_matroid_s7 "
    "flag_order_leq is_coxeter_matroid orbit_points phi_polytope_check set_order_leq "
    "two_element_analysis",
    "orbit": "PluckerSupport fixed_points geometric_table limit_point plucker_support "
    "sample_rational_point weight_for_chamber",
    "retraction": "RetractionTable SubsetM algebraic_retract closest_set matroid_retract "
    "retraction_table",
    "weyl": "Factor GroupDescriptor SignedPermutation WeylType act_on_vector bruhat_leq chamber_of "
    "compose default_base_point elements enumerate_group inverse length longest_element metric "
    "order_key",
}


def test_root_reexports_resolve_on_first_access():
    exported = {name for names in EXPORTS.values() for name in names.split()}
    assert set(weylret.__all__) == exported
    listed = dir(weylret)
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"weylret.{module}")
        for name in names.split():
            assert getattr(weylret, name) is getattr(home, name), name
            assert name in listed, name
    with pytest.raises(AttributeError):
        weylret.no_such_name  # noqa: B018


MATRIX = "[[1,2,0],[0,1,3],[1,0,1]]"
WITHOUT_NUMPY = [
    ["table", "--matrix", MATRIX, "--method", "greedy"],
    ["table", "--matrix", MATRIX, "--method", "limit"],
    ["retract", "--matrix", MATRIX, "--method", "greedy", "--at", "[2,1,3]"],
    ["retract", "--matrix", MATRIX, "--method", "closest", "--at", "[2,1,3]"],
    ["fixed-points", "--matrix", MATRIX],
    ["limit", "--matrix", MATRIX, "--weight", '["1","5","2"]'],
    ["fan", "--matrix", MATRIX, "--method", "limit"],
    ["query", "--matrix", MATRIX, "--method", "greedy", "--point", '["1/3","2","-1"]'],
    ["sample", "--n", "3", "--seed", "1"],
]
WITH_NUMPY = [
    ["matroid", "check", "--matrix", MATRIX],
    ["table", "--matrix", MATRIX, "--method", "order"],
]


def _loads_numpy(code: str) -> bool:
    """Whether `code`, run in a fresh interpreter, leaves numpy loaded."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    ))
    script = code + "\nimport sys\nprint('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1]
    assert last in ("True", "False"), proc.stdout
    return last == "True"


def _label(argv: list[str]) -> str:
    return " ".join(a for a in argv if a != MATRIX)


def _cli_call(argv: list[str]) -> str:
    return (
        "from weylret.cli import main\n"
        f"assert main({json.dumps(argv)}) == 0"
    )


def test_import_leaves_numpy_out():
    assert not _loads_numpy("import weylret")
    assert _loads_numpy("import weylret.matroid")


@pytest.mark.parametrize("argv", WITHOUT_NUMPY, ids=_label)
def test_calls_off_the_order_route_leave_numpy_out(argv):
    assert not _loads_numpy(_cli_call(argv))


@pytest.mark.parametrize("argv", WITH_NUMPY, ids=_label)
def test_calls_on_the_order_route_load_numpy(argv):
    assert _loads_numpy(_cli_call(argv))
