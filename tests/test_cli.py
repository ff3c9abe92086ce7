import json

import pytest

from weylret.cli import main, parse_group

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


def test_parse_errors_exit_3(capsys):
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


def test_singular_matrix_exits_4(capsys):
    code, _ = run(capsys, "fixed-points", "--matrix", "[[1,1],[1,1]]")
    assert code == 4


@pytest.mark.parametrize(
    "argv",
    [
        ("fixed-points", "--matrix", '[["1","2","3"],["4","5","6"]]'),
        (
            "matroid", "polytope", "--group", "A4", "--subset",
            "[[1,2,3,4,5],[2,1,3,4,5],[1,3,2,4,5],[1,2,4,3,5],[1,2,3,5,4]]",
        ),
        ("sample", "--n", "0", "--seed", "0"),
    ],
    ids=["non-square", "polytope-dim-4", "sample-n-0"],
)
def test_unsupported_inputs_exit_4(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_verify_threads_option_is_gone(capsys):
    assert main(["verify", "table1", "--threads", "2"]) == 3


# --- verify -----------------------------------------------------------------


def test_verify_json_payload(capsys):
    code = main(["verify", "table1", "fan-figures", "--json"])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert [p["name"] for p in payload] == ["table1", "fan-figures"]
    assert all(p["passed"] for p in payload)
    assert payload[0]["checks"] == 44


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
