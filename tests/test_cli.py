import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylret.cli import main, parse_group
from weylret.errors import ParseError
from weylret.weyl import elements

DEMO_1 = "[[1,1,0],[1,0,1],[1,0,0]]"
DEMO_2 = "[[1,0,1],[0,1,0],[1,0,0]]"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


# --- parsing ----------------------------------------------------------------


def test_parse_group_shorthand():
    assert parse_group("A2").window_length == 3  # Lie rank 2 is S3
    assert parse_group("BC2").window_length == 2
    assert parse_group("D4").window_length == 4
    assert parse_group("A2xA1").window_length == 5
    assert parse_group("A1xBC2").window_length == 4
    g = parse_group('{"factors": [{"type": "A", "rank": 3}]}')
    assert g.window_length == 3


def test_parse_group_errors(capsys):
    for bad in ("E8", "A0", "BC1", "bogus", "A2x"):
        code, _ = run(capsys, "retract", "--group", bad, "--subset", "[[1,2]]", "--at", "[1,2]")
        assert code == 3, bad


@pytest.mark.parametrize(
    "group",
    [
        '{"factors": []}',
        '{"factors": {}}',
        '{"factors": [{"type": "A", "rank": 2.5}]}',
        '{"factors": [{"type": "A", "rank": "2"}]}',
        '{"factors": [{"type": "A", "rank": true}]}',
    ],
    ids=["empty-list", "empty-object", "float-rank", "string-rank", "bool-rank"],
)
def test_bad_json_group_exits_3(capsys, group):
    code, _ = run(capsys, "retract", "--group", group, "--subset", "[[1]]", "--at", "[1]")
    assert code == 3


# --- retract ----------------------------------------------------------------


def test_retract_greedy(capsys):
    code, data = run(
        capsys,
        "retract",
        "--group",
        "A2",
        "--subset",
        "[[2,1,3],[3,1,2]]",
        "--at",
        "[3,2,1]",
    )
    assert code == 0
    assert data["retract"] == [3, 1, 2]


def test_retract_closest_reports_ties(capsys):
    code, data = run(
        capsys,
        "retract",
        "--group",
        "A2",
        "--subset",
        "[[1,3,2],[2,1,3]]",
        "--at",
        "[1,2,3]",
        "--method",
        "closest",
    )
    assert code == 0
    assert data["closest"] == [[1, 3, 2], [2, 1, 3]]
    assert data["distance"] == 1


def test_retract_order_non_matroid_exits_2(capsys):
    code, _ = run(
        capsys,
        "retract",
        "--group",
        "A2",
        "--subset",
        "[[1,3,2],[2,1,3]]",
        "--at",
        "[1,2,3]",
        "--method",
        "order",
    )
    assert code == 2


def test_retract_signed_group(capsys):
    code, data = run(
        capsys,
        "retract",
        "--group",
        "BC2",
        "--subset",
        "[[1,2],[-2,-1]]",
        "--at",
        "[-1,-2]",
    )
    assert code == 0
    assert data["retract"] == [-2, -1]


# --- tables, fixed points, fans ---------------------------------------------


def test_fixed_points_demo(capsys):
    code, data = run(capsys, "fixed-points", "--matrix", DEMO_1)
    assert code == 0
    assert data["support"] == [[[1], [2], [3]], [[1, 2], [1, 3]], [[1, 2, 3]]]
    assert data["fixed"] == [[1, 2, 3], [1, 3, 2], [2, 1, 3], [3, 1, 2]]


def test_table_limit_equals_greedy(capsys):
    code, limit = run(capsys, "table", "--matrix", DEMO_2, "--method", "limit")
    assert code == 0
    code, greedy = run(capsys, "table", "--matrix", DEMO_2, "--method", "greedy")
    assert code == 0
    assert limit["map"] == greedy["map"]
    assert limit["provenance"] == "geometric-limit"
    assert {tuple(u): tuple(v) for u, v in limit["map"]} == {
        (1, 2, 3): (1, 2, 3),
        (1, 3, 2): (1, 2, 3),
        (2, 1, 3): (1, 2, 3),
        (2, 3, 1): (3, 2, 1),
        (3, 1, 2): (3, 2, 1),
        (3, 2, 1): (3, 2, 1),
    }


def test_table_closest_method_rejected(capsys):
    code, _ = run(
        capsys, "table", "--matrix", DEMO_1, "--method", "closest"
    )
    assert code == 3


def test_limit_command(capsys):
    code, data = run(
        capsys, "limit", "--matrix", DEMO_1, "--weight", "[1,-2,1]"
    )
    assert code == 0
    assert data["limit"] == [2, 1, 3]


def test_limit_tie_exits_4(capsys):
    code, _ = run(capsys, "limit", "--matrix", DEMO_2, "--weight", "[0,5,0]")
    assert code == 4


def test_fan_and_query(capsys):
    code, fan = run(capsys, "fan", "--matrix", DEMO_2, "--method", "limit")
    assert code == 0
    assert fan["lineality"] == [[1, -2, 1]]
    assert len(fan["cones"]) == 2
    code, res = run(
        capsys,
        "query",
        "--matrix",
        DEMO_1,
        "--method",
        "limit",
        "--point",
        "[1,-2,1]",
    )
    assert code == 0
    assert res["target"] == [2, 1, 3]
    assert res["grade"] == "interior"
    code, _ = run(
        capsys,
        "query",
        "--matrix",
        DEMO_1,
        "--method",
        "limit",
        "--point",
        "[0,0,0]",
    )
    assert code == 4  # between targets


# --- matroid subcommands ----------------------------------------------------


def test_matroid_check_and_polytope(capsys):
    subset = "[[1,3,2],[2,1,3]]"
    code, data = run(
        capsys, "matroid", "check", "--group", "A2", "--subset", subset
    )
    assert code == 0
    assert data["is_matroid"] is False
    assert data["failures"]
    code, data = run(
        capsys, "matroid", "polytope", "--group", "A2", "--subset", subset
    )
    assert code == 0
    assert data["is_phi"] is False
    offending = {frozenset(map(tuple, pair)) for pair in data["offending"]}
    assert offending == {frozenset({(1, 3, 2), (2, 1, 3)})}


def test_matroid_polytope_takes_no_side(capsys):
    # the polytope route has no side, so --side is an unknown option there
    subset = "[[1,3,2],[2,1,3]]"
    for side in ("min", "max"):
        code, data = run(
            capsys, "matroid", "polytope", "--group", "A2", "--subset", subset, "--side", side
        )
        assert code == 3 and data is None
    code, _ = run(capsys, "matroid", "check", "--group", "A2", "--subset", subset, "--side", "max")
    assert code == 0


def test_matroid_polytope_in_rank_4_matches_matroid_check(capsys):
    # an orbit of intrinsic dimension 4: the identity and its four
    # adjacent transpositions
    subset = "[[1,2,3,4,5],[2,1,3,4,5],[1,3,2,4,5],[1,2,4,3,5],[1,2,3,5,4]]"
    code, poly = run(capsys, "matroid", "polytope", "--group", "A4", "--subset", subset)
    assert code == 0
    assert len(poly["vertices"]) == 5 and len(poly["edges"]) == 10
    code, check = run(capsys, "matroid", "check", "--group", "A4", "--subset", subset)
    assert code == 0
    assert poly["is_phi"] == check["is_matroid"]


def test_matroid_polytope_on_a_large_group_is_quick(capsys):
    # the orbit of two members of S100 is a segment along a root; building
    # it needs no walk over the chambers, whose walls cost quartic time in
    # the rank to set up
    identity = list(range(1, 101))
    subset = json.dumps([identity, [2, 1] + identity[2:]])
    t0 = time.perf_counter()
    code, poly = run(capsys, "matroid", "polytope", "--group", "A99", "--subset", subset)
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert poly["is_phi"] and len(poly["edges"]) == 1 and not poly["offending"]
    assert poly["base_point"] == [str(c) for c in range(100)]
    assert elapsed < 5


def test_matroid_scan_agrees(capsys):
    code, data = run(
        capsys,
        "matroid",
        "scan",
        "--group",
        "A2",
        "--count",
        "40",
        "--seed",
        "3",
    )
    assert code == 0
    assert data["disagreements"] == []
    assert data["scanned"] == 40


def test_two_element_command(capsys):
    code, data = run(
        capsys,
        "two-element",
        "--group",
        "A3",
        "--pair",
        "[[2,1,4,3],[4,3,1,2]]",
    )
    assert code == 0
    assert data["agree"] is True
    assert data["closest_route"] is False


def test_sample_deterministic(capsys):
    code, a = run(capsys, "sample", "--n", "3", "--seed", "11")
    assert code == 0
    code, b = run(capsys, "sample", "--n", "3", "--seed", "11")
    assert a == b


# --- IO paths and exit codes ------------------------------------------------


def test_at_file_and_stdin(capsys, tmp_path, monkeypatch):
    import io

    mat = tmp_path / "mat.json"
    mat.write_text(DEMO_1)
    code, from_file = run(capsys, "fixed-points", "--matrix", f"@{mat}")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(DEMO_1))
    code, from_stdin = run(capsys, "fixed-points", "--matrix", "-")
    assert code == 0
    assert from_file == from_stdin


def test_parse_errors_exit_3(capsys, tmp_path, monkeypatch):
    code, _ = run(capsys, "fixed-points", "--matrix", "[[1,2],[3")
    assert code == 3
    code, _ = run(
        capsys, "retract", "--group", "A2", "--subset", "[[1,2,3]]", "--at", "[9,2,3]"
    )
    assert code == 3
    code, _ = run(capsys, "retract", "--subset", "[[1,2,3]]", "--at", "[1,2,3]")
    assert code == 3  # subset without group
    code, _ = run(capsys, "verify", "no-such-suite")
    assert code == 3
    # letters must be JSON integers, and no float survives into a rational
    code, _ = run(
        capsys, "retract", "--group", "A2", "--subset", "[[1.0,2.0,3.0]]",
        "--at", "[1,2,3]", "--method", "closest",
    )
    assert code == 3
    code, _ = run(capsys, "retract", "--group", "A2", "--subset", "[[1,2,3]]", "--at", "[1e400,2,3]")
    assert code == 3
    code, _ = run(capsys, "fixed-points", "--matrix", "[[1e400]]")
    assert code == 3
    code, _ = run(capsys, "fixed-points", "--matrix", "[1, 2]")
    assert code == 3
    # a count below 1 would check nothing, or fail inside the sampler
    for argv in (
        ("verify", "fano", "--count", "-1"),
        ("verify", "thmB-random", "--count", "0"),
        ("verify", "thmB-random", "--count", "-1"),
        ("matroid", "scan", "--group", "A2", "--count", "0"),
        ("matroid", "scan", "--group", "A2", "--count", "-1"),
    ):
        code, _ = run(capsys, *argv)
        assert code == 3, argv
    # a non-ASCII digit, JSON nested past the recursion limit and text
    # that is not UTF-8, read from a file and from a strict stdin
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b"[\xe9]")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"[\xe9]"), encoding="utf-8"))
    for argv in (
        ("retract", "--group", "A\u00b2", "--subset", "[[1,2,3]]", "--at", "[1,2,3]"),
        ("limit", "--matrix", "[[1,0],[0,1]]", "--weight", "[" * 5000),
        ("fixed-points", "--matrix", f"@{latin1}"),
        ("fixed-points", "--matrix", "-"),
    ):
        code = main(list(argv))
        assert code == 3, argv
        assert capsys.readouterr().err.startswith("error: "), argv


@pytest.mark.parametrize(
    "argv",
    [
        ("fixed-points", "--matrix", "[[true]]"),
        ("limit", "--matrix", "[[1,0],[0,1]]", "--weight", "[true,false]"),
        ("query", "--group", "A1", "--subset", "[[1,2]]", "--point", "[true,false]"),
    ],
    ids=["matrix", "weight", "point"],
)
def test_boolean_rationals_exit_3(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_singular_matrix_exits_4(capsys):
    code, _ = run(capsys, "fixed-points", "--matrix", "[[1,1],[1,1]]")
    assert code == 4


@pytest.mark.parametrize(
    "argv",
    [
        ("fixed-points", "--matrix", '[["1","2","3"],["4","5","6"]]'),
        ("sample", "--n", "0", "--seed", "0"),
        ("sample", "--n", "2", "--seed", "0", "--density", "-1"),
        ("sample", "--n", "2", "--seed", "0", "--kind", "sparse", "--density", "5"),
        ("two-element", "--group", "A2", "--pair", "[[1,2,3],[1,2,3]]"),
        ("table", "--group", "A2", "--subset", "[[1,2,3],[1,3,2]]", "--side", "max"),
        ("retract", "--group", "A2", "--subset", "[[1,2,3],[1,3,2]]", "--at", "[3,2,1]",
         "--method", "closest", "--side", "max"),
        ("table", "--matrix", DEMO_2, "--method", "limit", "--side", "max"),
        ("fan", "--matrix", DEMO_2, "--method", "limit", "--side", "max"),
        ("query", "--matrix", DEMO_2, "--method", "limit", "--side", "max",
         "--point", '["0","1","2"]'),
    ],
    ids=["non-square", "sample-n-0", "sample-density-negative", "sample-density-above-1",
         "two-element-equal", "table-side-max", "retract-closest-side-max",
         "table-limit-side-max", "fan-limit-side-max", "query-limit-side-max"],
)
def test_unsupported_inputs_exit_4(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("group", ["A2999", "A4999999"])
def test_matroid_scan_on_a_huge_group_exits_4(capsys, group):
    # the order of S3000 has more digits than int-to-str converts, and
    # that of S5000000 takes minutes to multiply out: the cap check stops
    # multiplying once the product passes the cap
    t0 = time.perf_counter()
    code = main(["matroid", "scan", "--group", group, "--count", "1"])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "cap 1000000" in captured.err
    assert elapsed < 2


def test_verify_threads_option_is_gone(capsys):
    assert main(["verify", "table1", "--threads", "2"]) == 3


# --- fuzz -------------------------------------------------------------------

# Rank <= 3 only, so no draw enumerates a large group; a few tokens are bad.
_GROUPS = (
    "A1", "A2", "A3", "BC2", "BC3", "D3", "A1xBC2", "A1xA1", "E8", "BC1", "A2x", "{", "A\u00b2",
)

_LETTERS = st.integers(-4, 4)
_JSON = st.recursive(
    st.none() | st.booleans() | _LETTERS | st.sampled_from(["1/2", "-3", "1/0", "x", "", 1.0, 2.5]),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=12,
)
_WINDOW = st.lists(_LETTERS, min_size=1, max_size=4, unique_by=abs)
_FRAGMENTS = st.one_of(
    _JSON.map(json.dumps),
    _WINDOW.map(json.dumps),
    st.lists(_WINDOW, min_size=1, max_size=3).map(json.dumps),
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n), min_size=n, max_size=n)
    ).map(json.dumps),
    st.sampled_from(["[[1,2", "{}", "nan", "[1e400]", "[" * 5000]),
)
# Per command: its options, the required ones first, and its --method choices.
_COMMANDS = {
    ("two-element",): (("--group", "--pair"), (), ()),
    ("matroid", "check"): ((), ("--group", "--subset", "--matrix", "--side"), ()),
    ("retract",): (("--at",), ("--group", "--subset", "--matrix", "--method", "--side"),
                   ("greedy", "order", "closest")),
    ("fixed-points",): (("--matrix",), (), ()),
    ("query",): (("--point",), ("--group", "--subset", "--matrix", "--method", "--side"),
                 ("greedy", "order", "limit")),
}


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    required, optional, methods = _COMMANDS[command]
    token = draw(st.sampled_from(_GROUPS))
    try:
        pool = [list(w.window) for w in elements(parse_group(token))]
    except ParseError:
        pool = [[1, 2, 3]]
    member = st.sampled_from(pool)
    # a window option holds either members of the drawn group, so that the
    # draw gets past parsing, or a fragment
    values = {
        "--group": st.just(token),
        "--at": st.one_of(member.map(json.dumps), _FRAGMENTS),
        "--pair": st.one_of(st.lists(member, min_size=2, max_size=2).map(json.dumps), _FRAGMENTS),
        "--subset": st.one_of(st.lists(member, min_size=1, max_size=4).map(json.dumps), _FRAGMENTS),
        "--method": st.sampled_from(methods),
        "--side": st.sampled_from(("min", "max")),
    }
    # --matrix overrides --group and --subset, so an optional one is rare
    kept = [f for f in optional if draw(st.integers(0, 3)) < (1 if f == "--matrix" else 3)]
    argv = list(command)
    for flag in required + tuple(kept):
        argv += [flag, draw(values.get(flag, _FRAGMENTS))]
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=fuzz_argv())
def test_cli_fuzz_exits_with_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert (code == 0) == (err.getvalue() == ""), (argv, err.getvalue())


# --- verify -----------------------------------------------------------------


def test_verify_json_payload(capsys):
    code = main(["verify", "table1", "fan-figures", "--json"])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert [p["name"] for p in payload] == ["table1", "fan-figures"]
    assert all(p["passed"] for p in payload)
    assert payload[0]["checks"] == 44


def test_unknown_suite_exits_3_and_lists_the_suites(capsys):
    from weylret.suites import SUITES

    assert main(["verify", "table1", "no-such-suite"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unknown suite 'no-such-suite'")
    assert all(repr(name) in captured.err for name in SUITES)


def test_verify_text_lines(capsys):
    code = main(["verify", "fan-figures", "--timings"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert lines[0].startswith("PASS fan-figures checks=")
    assert "all 1 suites passed" in lines[-1]
    assert "fan-figures" in captured.err


def test_verify_threads_env(capsys, monkeypatch):
    monkeypatch.setenv("WEYLRET_THREADS", "2")
    code = main(["verify", "closest-unique", "--count", "2"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines()[0].startswith("PASS closest-unique")


@pytest.mark.parametrize("argv", [
    ["table", "--matrix", "[[1,2,0],[0,1,3],[1,0,1]]", "--method", "greedy"],
    ["sample", "--n", "2", "--seed", "1"],
], ids=["table", "sample"])
def test_closed_stdout_exits_4_without_traceback(argv):
    # stdout is a pipe whose reader is gone before anything is written
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "weylret", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 4
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
