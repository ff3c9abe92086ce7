"""Command line interface.

Groups are written either as shorthand like ``A2``, ``BC3``, ``D4`` or
products ``A2xA1`` (the number is the Lie rank, so ``A2`` acts on windows
of length 3), or as the JSON descriptor form used in payloads (where the
rank of an A factor is its window length).  Windows are compact JSON lists
like ``[2,-4,1,3]``, rationals are strings like ``"1/2"``, and matrices
are JSON row lists of rationals.  Any argument value may be ``@path`` to
read the text from a file, or ``-`` to read it from stdin.

Exit codes: 0 success, 1 failed verification, 2 no unique extremal
element, 3 malformed input, 4 any other precondition violation.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from fractions import Fraction
from typing import Sequence

from .errors import NotAMatroidAt, ParseError, PreconditionError, WeylretError
from .exact import RationalMatrix, parse_rational
from .fan import build_fan, query
from .orbit import (
    fixed_points,
    geometric_table,
    limit_point,
    plucker_support,
    sample_rational_point,
)
from .retraction import (
    SubsetM,
    algebraic_retract,
    closest_set,
    matroid_retract,
    retraction_table,
)
from .weyl import Factor, GroupDescriptor, SignedPermutation, WeylType


class _Parser(argparse.ArgumentParser):
    """Raise instead of exiting so the caller controls the exit code."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise ParseError(message)


def _count(value: str) -> int:
    """An argparse type for --count: an integer of at least 1."""
    count = int(value)
    if count < 1:
        raise argparse.ArgumentTypeError(f"count must be at least 1, got {count}")
    return count


def _load_text(value: str) -> str:
    """The text of an argument: itself, or read from stdin (``-``) or a
    file (``@path``), which must be UTF-8."""
    if value != "-" and not value.startswith("@"):
        return value
    try:
        if value == "-":
            return sys.stdin.read()
        with open(value[1:], "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        source = "stdin" if value == "-" else value[1:]
        raise ParseError(f"cannot read {source}: {exc}") from exc


def _json_value(value: str):
    try:
        return json.loads(_load_text(value))
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("bad JSON: nested too deeply") from exc


def parse_group(text: str) -> GroupDescriptor:
    raw = _load_text(text).strip()
    if raw.startswith("{"):
        return GroupDescriptor.from_json(_json_value(raw))
    factors = []
    for token in raw.split("x"):
        token = token.strip()
        for prefix, wtype in (("BC", WeylType.BC), ("D", WeylType.D), ("A", WeylType.A)):
            if token.upper().startswith(prefix):
                digits = token[len(prefix):]
                break
        else:
            raise ParseError(f"bad group token {token!r}")
        if not (digits.isascii() and digits.isdigit()):
            raise ParseError(f"bad group token {token!r}")
        lie_rank = int(digits)
        window = lie_rank + 1 if wtype is WeylType.A else lie_rank
        try:
            factors.append(Factor(wtype, window))
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    return GroupDescriptor(tuple(factors))


def _letters(data) -> list:
    """A JSON window: a list, whose letters `GroupDescriptor.element` checks."""
    if not isinstance(data, list):
        raise ParseError(f"bad window {data!r}: not a JSON list")
    return data


def _window(group: GroupDescriptor, data) -> SignedPermutation:
    """The element of a decoded JSON window."""
    data = _letters(data)
    try:
        return group.element(data)
    except ValueError as exc:
        raise ParseError(f"bad window {data!r}: {exc}") from exc


def parse_window(group: GroupDescriptor, text: str) -> SignedPermutation:
    return _window(group, _json_value(text))


def parse_subset(group: GroupDescriptor, text: str) -> SubsetM:
    data = _json_value(text)
    if not isinstance(data, list) or not data:
        raise ParseError("subset must be a nonempty JSON list of windows")
    windows = [_letters(w) for w in data]
    try:
        return SubsetM.from_windows(group, windows)
    except ValueError as exc:
        raise ParseError(f"bad subset: {exc}") from exc


def parse_matrix(text: str) -> RationalMatrix:
    data = _json_value(text)
    if not isinstance(data, list) or not data:
        raise ParseError("matrix must be a nonempty JSON list of rows")
    try:
        return RationalMatrix.from_json(data)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad matrix: {exc}") from exc


def parse_point(text: str, dim: int) -> tuple[Fraction, ...]:
    data = _json_value(text)
    if not isinstance(data, list) or len(data) != dim:
        raise ParseError(f"point must be a JSON list of {dim} rationals")
    return tuple(parse_rational(v) for v in data)


def _emit(obj) -> None:
    print(json.dumps(obj, separators=(", ", ": ")))


def _subset_from_args(args) -> SubsetM:
    if getattr(args, "matrix", None):
        return fixed_points(parse_matrix(args.matrix))
    if getattr(args, "subset", None):
        if not args.group:
            raise ParseError("--subset needs --group")
        return parse_subset(parse_group(args.group), args.subset)
    raise ParseError("need --subset or --matrix")


def _table_from_args(args):
    method = args.method
    if args.side != "min":
        raise PreconditionError("a table fixes its targets, which needs --side min")
    if method == "limit":
        if not getattr(args, "matrix", None):
            raise ParseError("method 'limit' needs --matrix")
        return geometric_table(parse_matrix(args.matrix))
    M = _subset_from_args(args)
    return retraction_table(M, method={"greedy": "algebraic", "order": "matroid"}[method])


def cmd_retract(args) -> int:
    M = _subset_from_args(args)
    u = parse_window(M.group, args.at)
    if args.method == "closest":
        if args.side != "min":
            raise PreconditionError("method 'closest' needs --side min")
        close, dist = closest_set(M, u)
        _emit({
            "method": "closest",
            "at": list(u.window),
            "closest": [list(v.window) for v in close],
            "distance": dist,
        })
        return 0
    retract = algebraic_retract if args.method == "greedy" else matroid_retract
    v = retract(M, u, side=args.side)
    _emit({"method": args.method, "at": list(u.window), "retract": list(v.window)})
    return 0


def cmd_table(args) -> int:
    table = _table_from_args(args)
    _emit(table.to_json())
    return 0


def cmd_fixed_points(args) -> int:
    x = parse_matrix(args.matrix)
    sup = plucker_support(x)
    fixed = fixed_points(sup)
    _emit({
        "n": sup.n,
        "support": sup.to_json()["sets"],
        "fixed": [list(w.window) for w in fixed],
    })
    return 0


def cmd_limit(args) -> int:
    x = parse_matrix(args.matrix)
    sup = plucker_support(x)
    lam = parse_point(args.weight, sup.n)
    w = limit_point(sup, lam)
    _emit({"weight": [str(v) for v in lam], "limit": list(w.window)})
    return 0


def cmd_fan(args) -> int:
    fan = build_fan(_table_from_args(args))
    _emit(fan.to_json())
    return 0


def cmd_query(args) -> int:
    fan = build_fan(_table_from_args(args))
    lam = parse_point(args.point, fan.table.group.ambient_dim)
    res = query(fan, lam)
    _emit({
        "point": [str(v) for v in lam],
        "target": list(res.target.window),
        "grade": res.grade.value,
        "chambers": [list(u.window) for u in res.chambers],
    })
    return 0


def cmd_matroid_check(args) -> int:
    from .matroid import is_coxeter_matroid

    M = _subset_from_args(args)
    verdict = is_coxeter_matroid(M, side=args.side)
    _emit({
        "is_matroid": verdict.is_matroid,
        "side": verdict.side,
        "failures": [
            {"at": list(u.window), "extremal": [list(v.window) for v in ext]}
            for u, ext in verdict.failures[:20]
        ],
    })
    return 0


def cmd_matroid_polytope(args) -> int:
    from .matroid import phi_polytope_check

    M = _subset_from_args(args)
    report = phi_polytope_check(M)
    _emit({
        "is_phi": report.is_phi,
        "base_point": [str(v) for v in report.nu],
        "vertices": [list(w.window) for w in report.vertices],
        "edges": [[list(a.window), list(b.window)] for a, b in report.edges],
        "offending": [[list(a.window), list(b.window)] for a, b in report.offending],
    })
    return 0


def cmd_matroid_scan(args) -> int:
    """Random search for a subset where the order route and the polytope
    route disagree; none is expected to exist."""
    from .matroid import is_coxeter_matroid, phi_polytope_check
    from .suites import _random_subset

    group = parse_group(args.group)
    rng = random.Random(args.seed)
    disagreements = []
    for _ in range(args.count):
        M = _random_subset(group, rng)
        order_route = is_coxeter_matroid(M).is_matroid
        hull_route = phi_polytope_check(M).is_phi
        if order_route != hull_route:
            disagreements.append({
                "subset": [list(w.window) for w in M],
                "unique_extremum": order_route,
                "root_parallel": hull_route,
            })
    _emit({
        "group": group.to_json(),
        "scanned": args.count,
        "seed": args.seed,
        "disagreements": disagreements,
    })
    return 1 if disagreements else 0


def cmd_two_element(args) -> int:
    from .matroid import two_element_analysis

    group = parse_group(args.group)
    data = _json_value(args.pair)
    if not isinstance(data, list) or len(data) != 2:
        raise ParseError("pair must be a JSON list of two windows")
    x, y = (_window(group, w) for w in data)
    rep = two_element_analysis(x, y)
    _emit({
        "pair": [list(x.window), list(y.window)],
        "closest_route": rep.closest_route,
        "matroid_route": rep.matroid_route,
        "reflection_route": rep.reflection_route,
        "agree": rep.agree,
    })
    return 0


def cmd_sample(args) -> int:
    x = sample_rational_point(
        args.n, args.seed, kind=args.kind, density=parse_rational(args.density)
    )
    _emit(x.to_json())
    return 0


def cmd_verify(args) -> int:
    from .suites import SUITES, run_suite

    names = args.suite or sorted(SUITES)
    for name in names:
        if name not in SUITES:
            raise ParseError(f"unknown suite {name!r}; know {sorted(SUITES)}")
    all_passed = True
    results = []
    for name in names:
        t0 = time.perf_counter()
        res = run_suite(name, count=args.count, seed=args.seed)
        wall = time.perf_counter() - t0
        all_passed &= res.passed
        payload = res.to_json()
        if args.timings:
            payload["wall_time"] = round(wall, 3)
        results.append(payload)
        print(f"{name}: {wall:.2f}s", file=sys.stderr)
        if not args.json:
            status = "PASS" if res.passed else "FAIL"
            extra = f" [{wall:.2f}s]" if args.timings else ""
            print(f"{status} {name} checks={res.checks}{extra}")
            for note in res.notes:
                print(f"  note: {note}")
            for failure in res.failures:
                print(f"  fail: {failure}")
    if args.json:
        _emit(results)
    elif all_passed:
        print(f"all {len(names)} suites passed")
    else:
        print("verification FAILED")
    return 0 if all_passed else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="weylret", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_subset_options(p, methods=(), with_side=True):
        p.add_argument("--group", help="group shorthand like A2, BC2, A2xA1, or JSON")
        p.add_argument("--subset", help="JSON list of windows")
        p.add_argument("--matrix", help="JSON matrix; its fixed points become the subset")
        if methods:
            p.add_argument("--method", choices=methods, default="greedy")
        if with_side:
            p.add_argument("--side", choices=("min", "max"), default="min")

    p = sub.add_parser("retract", help="retract one element onto a subset")
    add_subset_options(p, methods=("greedy", "order", "closest"))
    p.add_argument("--at", required=True, help="base element window, JSON")
    p.set_defaults(fn=cmd_retract)

    p = sub.add_parser("table", help="tabulate a retraction over the whole group")
    add_subset_options(p, methods=("greedy", "order", "limit"))
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("fixed-points", help="support and fixed points of a matrix")
    p.add_argument("--matrix", required=True)
    p.set_defaults(fn=cmd_fixed_points)

    p = sub.add_parser("limit", help="limit fixed point for a weight")
    p.add_argument("--matrix", required=True)
    p.add_argument("--weight", required=True, help="JSON list of rationals")
    p.set_defaults(fn=cmd_limit)

    p = sub.add_parser("fan", help="build the coarsened chamber fan of a table")
    add_subset_options(p, methods=("greedy", "order", "limit"))
    p.set_defaults(fn=cmd_fan)

    p = sub.add_parser("query", help="locate a point in the fan of a table")
    add_subset_options(p, methods=("greedy", "order", "limit"))
    p.add_argument("--point", required=True, help="JSON list of rationals")
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("matroid", help="matroid-property checks")
    msub = p.add_subparsers(dest="subcommand", required=True)
    q = msub.add_parser("check", help="unique-extremum route")
    add_subset_options(q)
    q.set_defaults(fn=cmd_matroid_check)
    q = msub.add_parser("polytope", help="root-parallel-edge route")
    add_subset_options(q, with_side=False)
    q.set_defaults(fn=cmd_matroid_polytope)
    q = msub.add_parser("scan", help="random search for disagreement between routes")
    q.add_argument("--group", required=True)
    q.add_argument("--count", type=_count, default=100)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(fn=cmd_matroid_scan)

    p = sub.add_parser("two-element", help="three-route report on a pair")
    p.add_argument("--group", required=True)
    p.add_argument("--pair", required=True, help="JSON list of two windows")
    p.set_defaults(fn=cmd_two_element)

    p = sub.add_parser("sample", help="seeded random invertible rational matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--kind", choices=("generic", "sparse"), default="generic")
    p.add_argument("--density", default="1/2")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("verify", help="run named verification suites")
    p.add_argument("suite", nargs="*", help="suite names (default: all suites)")
    p.add_argument("--count", type=_count, default=None, help="scale random parts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timings", action="store_true", help="embed wall times in stdout")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        code = _dispatch(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; what is still buffered goes to the null
        # device, so that the flush at exit raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed", file=sys.stderr)
        return 4
    return code


def _dispatch(argv: Sequence[str] | None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        return args.fn(args)
    except NotAMatroidAt as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except WeylretError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
