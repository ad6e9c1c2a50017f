"""Command-line interface."""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import geoplan as gp
from conftest import quote_numbers, random_spec
from crosscheck import infeasible_instance
from geoplan import cli

F = Fraction

DATA = Path(__file__).parent / "data"
EX1 = str(DATA / "ex1.json")


@pytest.fixture
def infeasible_file(tmp_path):
    path = tmp_path / "bad.json"
    gp.save_spec(infeasible_instance(), str(path))
    return str(path)


@pytest.fixture
def multi_file(tmp_path):
    ex1 = gp.example_instance()
    spec = gp.make_spec(ex1.node_ids, ex1.rtt, ex1.demands, 3, capacities=(2, 1, 1, 1))
    path = tmp_path / "multi.json"
    gp.save_spec(spec, str(path))
    return str(path)


def test_validate_ok(capsys):
    assert cli.main(["validate", "--spec", EX1]) == 0
    out = capsys.readouterr()
    assert "ok: 4 nodes, 3 files" in out.out
    payload = json.loads(out.out[: out.out.rindex("ok:")])
    assert payload["schema"] == "validation/1"
    assert payload["ok"] is True
    assert payload["triangle_breaches"] == 1
    assert [v["kind"] for v in payload["violations"]] == ["triangle"]


def test_validate_strict_fails(capsys):
    assert cli.main(["validate", "--spec", EX1, "--strict"]) == 3
    err = capsys.readouterr().err
    assert "[triangle]" in err


def test_one_parser_serves_successive_commands(capsys):
    assert cli._build_parser() is cli._build_parser()
    assert cli.main(["validate", "--spec", EX1, "--strict"]) == 3
    first = capsys.readouterr()
    # --strict does not carry over: a strict plan of EX1 would exit 3
    assert cli.main(["plan", "--spec", EX1]) == 0
    second = capsys.readouterr()
    assert "[triangle]" in first.err and "average latency" not in first.out
    assert "average latency: 13/10 (1.300000)" in second.out and second.err == ""


def test_plan_to_stdout(capsys):
    assert cli.main(["plan", "--spec", EX1]) == 0
    out = capsys.readouterr().out
    assert "average latency: 13/10 (1.300000)" in out
    assert "  A: file 2" in out
    assert "  D: file 0" in out
    assert "supply graph 0, exhaustive: True" in out


def test_plan_to_file(tmp_path, capsys):
    out_file = tmp_path / "plan.json"
    assert cli.main(["plan", "--spec", EX1, "--out", str(out_file)]) == 0
    stdout = capsys.readouterr().out
    assert "average latency" in stdout
    assert "{" not in stdout
    payload = json.loads(out_file.read_text())
    assert payload["average"] == "13/10"
    assert payload["placement"] == [["A", 2], ["B", 1], ["C", 2], ["D", 0]]
    assert "assignment_trace" not in payload


def test_plan_trace_flag(tmp_path):
    out_file = tmp_path / "plan.json"
    assert cli.main(["plan", "--spec", EX1, "--trace", "--out", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    steps = payload["assignment_trace"]["steps"]
    assert steps[0]["kind"] == "row_reduce"
    assert steps[-1]["kind"] == "matching"


def test_plan_infeasible_exit(infeasible_file, tmp_path, capsys):
    out_file = tmp_path / "plan.json"
    code = cli.main(["plan", "--spec", infeasible_file, "--out", str(out_file)])
    assert code == 4
    assert "infeasible" in capsys.readouterr().out
    payload = json.loads(out_file.read_text())
    assert payload["status"] == "infeasible"
    assert payload["certificate"] == ["A", "B", "C", "D"]


def test_plan_strict_exit(capsys):
    assert cli.main(["plan", "--spec", EX1, "--strict"]) == 3
    assert "[triangle]" in capsys.readouterr().err


def test_eval_placement_round_trip(tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    cli.main(["plan", "--spec", EX1, "--out", str(plan_file)])
    capsys.readouterr()
    eval_file = tmp_path / "eval.json"
    code = cli.main([
        "eval", "--spec", EX1,
        "--placement", str(plan_file),
        "--out", str(eval_file),
    ])
    assert code == 0
    assert "average latency: 13/10 (1.300000)" in capsys.readouterr().out
    planned = json.loads(plan_file.read_text())
    evaluated = json.loads(eval_file.read_text())
    assert evaluated["average"] == planned["average"]
    assert evaluated["schema"] == "latency-report/1"


def test_eval_placement_list_file(tmp_path, capsys):
    placement_file = tmp_path / "p.json"
    placement_file.write_text(json.dumps([["A", 2], ["B", 1], ["C", 2], ["D", 0]]))
    assert cli.main(["eval", "--spec", EX1, "--placement", str(placement_file)]) == 0
    out = capsys.readouterr().out
    assert "average latency: 13/10" in out
    assert "worst case C: 7 (7.000000)  floor 7 (7.000000)" in out


def test_eval_needs_exactly_one_payload(tmp_path, capsys):
    assert cli.main(["eval", "--spec", EX1]) == 1
    placement_file = tmp_path / "p.json"
    placement_file.write_text(json.dumps([["A", 0]]))
    code_file = tmp_path / "c.json"
    code_file.write_text(json.dumps({"q": 2, "generator": [[1]]}))
    capsys.readouterr()
    assert cli.main([
        "eval", "--spec", EX1,
        "--placement", str(placement_file),
        "--code", str(code_file),
    ]) == 1
    assert "exactly one" in capsys.readouterr().err


def test_eval_rejects_unknown_node(tmp_path, capsys):
    placement_file = tmp_path / "p.json"
    placement_file.write_text(json.dumps([["Z", 0]]))
    assert cli.main(["eval", "--spec", EX1, "--placement", str(placement_file)]) == 1
    assert "unknown node id" in capsys.readouterr().err


def test_eval_code(tmp_path, capsys):
    code_file = tmp_path / "code.json"
    code_file.write_text(json.dumps(gp.mds_code(4, 3).to_dict()))
    eval_file = tmp_path / "eval.json"
    assert cli.main([
        "eval", "--spec", EX1, "--code", str(code_file), "--out", str(eval_file),
    ]) == 0
    assert "average latency" in capsys.readouterr().out
    payload = json.loads(eval_file.read_text())
    assert payload["worst_case"] == payload["worst_case_bounds"]
    assert payload["recovery"]["schema"] == "recovery-plan/1"


def test_eval_large_mds_code(tmp_path, capsys):
    # q ** (n - k) = 19 ** 10 decoding vectors per file: far too many to list
    n, k = 14, 4
    spec = gp.make_spec(
        [f"n{i}" for i in range(n)],
        [[abs(u - v) for v in range(n)] for u in range(n)],
        [[F(1, n * k)] * k for _ in range(n)],
        k,
    )
    spec_file = tmp_path / "line.json"
    gp.save_spec(spec, str(spec_file))
    code_file = tmp_path / "code.json"
    code_file.write_text(json.dumps(gp.mds_code(n, k).to_dict()))
    eval_file = tmp_path / "eval.json"
    assert cli.main([
        "eval", "--spec", str(spec_file), "--code", str(code_file), "--out", str(eval_file),
    ]) == 0
    payload = json.loads(eval_file.read_text())
    assert payload["worst_case"] == payload["worst_case_bounds"]


def test_eval_code_multi_capacity_expands(multi_file, capsys):
    code_file = Path(multi_file).parent / "code.json"
    code_file.write_text(json.dumps(gp.mds_code(5, 3).to_dict()))
    assert cli.main(["eval", "--spec", multi_file, "--code", str(code_file)]) == 0
    out = capsys.readouterr().out
    assert "worst case A#1" in out


def test_oracle_modes(tmp_path, capsys):
    out_file = tmp_path / "oracle.json"
    assert cli.main(["oracle", "--spec", EX1, "--out", str(out_file)]) == 0
    assert "minimum average latency: 13/10" in capsys.readouterr().out
    payload = json.loads(out_file.read_text())
    assert payload["mode"] == "admissible_only"
    assert payload["best"] == "13/10"
    assert payload["witness_placements"] == [[["A", 2], ["B", 1], ["C", 2], ["D", 0]]]
    assert cli.main([
        "oracle", "--spec", EX1, "--mode", "unrestricted", "--out", str(out_file),
    ]) == 0
    payload = json.loads(out_file.read_text())
    assert payload["best"] == "7/10"
    assert payload["scored"] == 36


def test_oracle_infeasible_exit(infeasible_file, capsys):
    assert cli.main(["oracle", "--spec", infeasible_file]) == 4
    assert "no feasible placement" in capsys.readouterr().out


def test_wide_tie_grid_exits_5(tmp_path, capsys):
    """A 6 x 6 Manhattan grid with three files ties every node with up to
    four peers; the one search needs a table past MAX_TABLE_ROWS, and
    plan refuses instead of returning a plan that might not be optimal."""
    cells = [(x, y) for x in range(6) for y in range(6)]
    rtt = [[abs(a[0] - b[0]) + abs(a[1] - b[1]) for b in cells] for a in cells]
    n = len(cells)
    spec = gp.make_spec([f"g{i}" for i in range(n)], rtt, [[F(1, 3 * n)] * 3] * n, 3)
    path = tmp_path / "grid.json"
    gp.save_spec(spec, str(path))
    assert cli.main(["plan", "--spec", str(path)]) == 5
    assert "past 100000 rows" in capsys.readouterr().err


def clique_file(tmp_path, n: int) -> str:
    """n nodes and n files: every node supplies every other, so the
    conflict graph is K_n and the first elimination step holds one row
    per proper coloring of all n nodes, n! rows."""
    rtt = [[0 if a == b else a + b for b in range(n)] for a in range(n)]
    spec = gp.make_spec([f"n{i}" for i in range(n)], rtt, [[F(1, n * n)] * n] * n, n)
    path = tmp_path / f"clique{n}.json"
    gp.save_spec(spec, str(path))
    return str(path)


def test_a_clique_of_eight_files_plans(tmp_path):
    out_file = tmp_path / "plan.json"
    assert cli.main(["plan", "--spec", clique_file(tmp_path, 8), "--out", str(out_file)]) == 0
    placement = json.loads(out_file.read_text())["placement"]
    assert sorted(file for _, file in placement) == list(range(8))


def test_a_clique_of_nine_files_exits_5(tmp_path, capsys):
    """9! = 362,880 rows, past MAX_TABLE_ROWS."""
    assert cli.main(["plan", "--spec", clique_file(tmp_path, 9)]) == 5
    assert "coloring table past 100000 rows at node n0" in capsys.readouterr().err


def test_oracle_budget_exit(capsys):
    assert cli.main(["oracle", "--spec", EX1, "--budget", "10"]) == 5
    assert "budget exceeded" in capsys.readouterr().err
    # 0 is a budget like any other, not a request for the default
    assert cli.main(["oracle", "--spec", EX1, "--budget", "0"]) == 5
    assert "budget of 0" in capsys.readouterr().err
    assert cli.main(["oracle", "--spec", EX1, "--budget", "81"]) == 0


def test_export_default(tmp_path, capsys):
    prefix = str(tmp_path / "net")
    assert cli.main(["export", "--spec", EX1, "--out", prefix]) == 0
    out = capsys.readouterr().out
    nng = Path(prefix + ".nng.dot").read_text()
    conflicts = Path(prefix + ".conflicts.dot").read_text()
    assert f"wrote {prefix}.nng.dot" in out
    assert nng.startswith("digraph nearest_neighbors")
    assert '"B" -> "A"' in nng
    assert conflicts.startswith("graph extended_conflicts")
    assert '"A" -- "B"' in conflicts
    assert '"A" -- "C"' not in conflicts


def test_export_all_graphs(tmp_path, capsys):
    spec_file = tmp_path / "tied.json"
    demands = [[F(1, 12)] * 3 for _ in range(4)]
    tied = gp.make_spec(
        ("P", "Q", "R", "S"),
        ((0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)),
        demands,
        3,
    )
    gp.save_spec(tied, str(spec_file))
    prefix = str(tmp_path / "tied")
    assert cli.main([
        "export", "--spec", str(spec_file), "--out", prefix, "--all-nngs", "--nng-cap", "4",
    ]) == 0
    for i in range(4):
        assert Path(f"{prefix}.nng-{i:02d}.dot").exists()
        assert Path(f"{prefix}.conflicts-{i:02d}.dot").exists()
    texts = {Path(f"{prefix}.nng-{i:02d}.dot").read_text() for i in range(4)}
    assert len(texts) == 4
    # the cap cut 81 graphs to 4, and the summary says so
    out = capsys.readouterr().out
    assert out.endswith("--nng-cap 4 kept 4 of 81 supply graphs\n")
    assert cli.main([
        "export", "--spec", str(spec_file), "--out", prefix, "--all-nngs", "--nng-cap", "81",
    ]) == 0
    assert "supply graphs" not in capsys.readouterr().out


def test_export_writes_the_first_of_all_graphs(tmp_path):
    # X is at distance 1 from Z (index 1) and Y (index 2): both exports
    # pick the lower index, not the lower id
    third = F(1, 3)
    spec_file = tmp_path / "xzy.json"
    gp.save_spec(gp.make_spec(
        ("X", "Z", "Y"),
        ((0, 1, 1), (1, 0, 5), (1, 5, 0)),
        ((third, 0), (third / 2, third / 2), (0, third)),
        2,
    ), str(spec_file))
    prefix = str(tmp_path / "xzy")
    assert cli.main(["export", "--spec", str(spec_file), "--out", prefix]) == 0
    assert cli.main(["export", "--spec", str(spec_file), "--out", prefix, "--all-nngs"]) == 0
    first = Path(f"{prefix}.nng.dot").read_text()
    assert '"Z" -> "X"' in first
    assert first == Path(f"{prefix}.nng-00.dot").read_text()


def test_expand_command(multi_file, tmp_path, capsys):
    out_file = tmp_path / "expanded.json"
    assert cli.main(["expand", "--spec", multi_file, "--out", str(out_file)]) == 0
    assert "4 nodes -> 5 unit slots" in capsys.readouterr().out
    payload = json.loads(out_file.read_text())
    ids = [node["id"] for node in payload["nodes"]]
    assert ids == ["A#1", "A#2", "B", "C", "D"]
    # the emitted expansion is itself a loadable network
    reloaded = gp.spec_from_dict(payload)
    assert reloaded.node_count == 5
    assert sum(map(sum, reloaded.demands)) == 1


def test_csv_overrides(tmp_path, capsys):
    rtt_csv = tmp_path / "rtt.csv"
    rtt_csv.write_text("0,2,9,2\n2,0,7,2\n9,7,0,5\n2,2,5,0\n")
    demands_csv = tmp_path / "demands.csv"
    rows = []
    for v in range(4):
        rows.append(",".join("1/12" for _ in range(3)))
    demands_csv.write_text("\n".join(rows) + "\n")
    assert cli.main([
        "plan", "--spec", EX1,
        "--rtt-csv", str(rtt_csv),
        "--demands-csv", str(demands_csv),
    ]) == 0
    assert "average latency: 2 (2.000000)" in capsys.readouterr().out


def test_missing_spec_file_is_an_io_error(tmp_path, capsys):
    assert cli.main(["plan", "--spec", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_spec_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["plan", "--spec", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "broken",
    [
        {"nodes": [1, 2]},
        {"nodes": [{"demands": [1]}, {"id": "b", "demands": [0]}]},
        {"nodes": [{"id": "a", "demands": [None, 0.5]}, {"id": "b", "demands": [0, 0.5]}]},
        {"rtt": [[0, True], [1, 0]]},
        {"nodes": 5},
        {"files": 3.7},
        {"files": True},
        {"nodes": [{"id": "a", "capacity": 1.5, "demands": [0.25, 0.25]},
                   {"id": "b", "demands": [0.25, 0.25]}]},
        {"nodes": [{"id": "a", "capacity": True, "demands": [0.25, 0.25]},
                   {"id": "b", "demands": [0.25, 0.25]}]},
        {"nodes": [{"id": "a", "demands": "00"}, {"id": "b", "demands": [0.5, 0.5]}]},
    ],
    ids=["node-not-object", "node-without-id", "null-demand", "boolean-rtt", "nodes-not-list",
         "fractional-files", "boolean-files", "fractional-capacity", "boolean-capacity",
         "string-demand-row"],
)
def test_malformed_network_fields_exit_1(tmp_path, capsys, broken):
    data = {
        "files": 2,
        "nodes": [{"id": "a", "demands": [0.25, 0.25]}, {"id": "b", "demands": [0.25, 0.25]}],
        "rtt": [[0, 1], [1, 0]],
    }
    data.update(broken)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert cli.main(["validate", "--spec", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("where", ["json-rtt", "json-demand", "rtt-csv", "demands-csv"])
@pytest.mark.parametrize("command", ["validate", "plan"])
def test_zero_denominator_exits_1(tmp_path, capsys, where, command):
    data = json.loads(Path(EX1).read_text())
    extra = []
    if where == "json-rtt":
        data["rtt"][0][1] = data["rtt"][1][0] = "1/0"
    elif where == "json-demand":
        data["nodes"][2]["demands"][0] = "1/0"
    elif where == "rtt-csv":
        csv_file = tmp_path / "rtt.csv"
        csv_file.write_text("0,1/0,9,2\n2,0,7,2\n9,7,0,5\n2,2,5,0\n")
        extra = ["--rtt-csv", str(csv_file)]
    else:
        csv_file = tmp_path / "demands.csv"
        csv_file.write_text("1/12,1/12,1/12\n" * 3 + "1/12,1/0,1/12\n")
        extra = ["--demands-csv", str(csv_file)]
    path = tmp_path / "net.json"
    path.write_text(json.dumps(data))
    assert cli.main([command, "--spec", str(path), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "zero denominator" in err
    assert "Traceback" not in err


def test_capacity_past_the_expansion_budget_exits_5(tmp_path, capsys):
    data = json.loads(Path(EX1).read_text())
    data["nodes"][0]["capacity"] = "1e400"  # a few bytes asking for 10^400 slots
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    for command in ("plan", "oracle", "expand", "export"):
        assert cli.main([command, "--spec", str(path), "--out", str(tmp_path / "out")]) == 5
        assert "expansion budget of 1024" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("value", ["1e-4300", "9e99999", "1e-99999"])
def test_numbers_past_the_digit_budget_exit_5(tmp_path, capsys, value):
    data = json.loads(Path(EX1).read_text())
    data["rtt"][0][1] = data["rtt"][1][0] = value
    path = tmp_path / "net.json"
    path.write_text(json.dumps(data))
    for command in ("validate", "plan", "oracle", "expand"):
        assert cli.main([command, "--spec", str(path)]) == 5
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("budget exceeded:") and "1000 digits" in err


def write_bare(path: Path, data: dict, text: str) -> None:
    """``data`` as JSON with every ``"@"`` string replaced by the JSON
    ``text``, so a number in it stands bare."""
    path.write_text(json.dumps(data).replace('"@"', text))


@pytest.mark.parametrize("where", ["json-rtt", "json-bare", "rtt-csv", "files", "capacity"])
@pytest.mark.parametrize(
    "literal",
    ["1" * 5000, "-" + "1" * 5000, "1/" + "1" * 5000, "1." + "0" * 5000],
    ids=["digits", "negative", "denominator", "decimal"],
)
def test_literals_past_the_conversion_limit_exit_5(tmp_path, capsys, where, literal):
    """Literals longer than the interpreter's 4,300-digit limit on integer
    string conversion are refused by the digit budget, not by int(),
    whether they are quoted or written as bare JSON numbers."""
    data = json.loads(Path(EX1).read_text())
    path = tmp_path / "net.json"
    extra = []
    if where == "json-bare":
        # a ratio is no JSON number: its long run stands bare as a decimal
        data["rtt"][0][1] = data["rtt"][1][0] = "@"
        write_bare(path, data, literal.replace("1/", "0."))
    elif where == "json-rtt":
        data["rtt"][0][1] = data["rtt"][1][0] = literal
    elif where == "rtt-csv":
        rows = [[str(x) for x in row] for row in data["rtt"]]
        rows[0][1] = rows[1][0] = literal
        csv_file = tmp_path / "rtt.csv"
        csv_file.write_text("".join(",".join(row) + "\n" for row in rows))
        extra = ["--rtt-csv", str(csv_file)]
    elif where == "files":
        data["files"] = literal
    else:
        data["nodes"][0]["capacity"] = literal
    if where != "json-bare":
        path.write_text(json.dumps(data))
    for command in ("validate", "plan"):
        assert cli.main([command, "--spec", str(path), *extra]) == 5
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("budget exceeded:") and "1000 digits" in err
        assert len(err) < 200


def test_exponent_literals_are_read_without_building_the_power(tmp_path, capsys):
    """A bare or quoted exponent literal is checked before 10**exponent
    is built: a zero reads as 0 and a value past the digit budget exits
    5 at once, a non-integral count included."""
    cases = [("rtt", "1e999999999", 5), ("rtt", "1e-999999999", 5), ("files", "1e-99999", 5),
             ("files", "3e0", 0), ("rtt", "0e999999999", 0)]
    path = tmp_path / "net.json"
    for field, literal, code in cases:
        data = json.loads(Path(EX1).read_text())
        if field == "rtt":
            data["rtt"][0][1] = data["rtt"][1][0] = "@"
        else:
            data["files"] = "@"
        for text in (literal, json.dumps(literal)):  # bare, then quoted
            write_bare(path, data, text)
            assert cli.main(["validate", "--spec", str(path)]) == code, text
            err = capsys.readouterr().err
            assert code == 0 or "1000 digits" in err


def test_bare_numeric_ids_are_kept_as_written(tmp_path, capsys):
    ids = ("1.50", "2", "-0", "1e2")
    text = Path(EX1).read_text()
    for node_id, bare in zip("ABCD", ids):
        text = text.replace(f'"id": "{node_id}"', f'"id": {bare}')
    path = tmp_path / "net.json"
    path.write_text(text)
    assert gp.load_spec(str(path)).node_ids == ids
    assert cli.main(["expand", "--spec", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out.split("\n", 1)[1])
    assert [n["id"] for n in payload["nodes"]] == list(ids)


@pytest.mark.parametrize("entry", [1.5, True, "2"], ids=["float", "bool", "string"])
@pytest.mark.parametrize("where", ["generator", "q"])
def test_eval_refuses_a_code_entry_that_is_not_an_integer(tmp_path, capsys, entry, where):
    code = gp.mds_code(4, 3, field_order=7).to_dict()
    if where == "q":
        code["q"] = entry
    else:
        code["generator"][1][2] = entry
    code_file = tmp_path / "code.json"
    code_file.write_text(json.dumps(code))
    assert cli.main(["eval", "--spec", EX1, "--code", str(code_file)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and f"{entry!r} is not an integer" in err


@pytest.mark.parametrize("entry", [8, 11, -1])
def test_eval_refuses_a_binary_field_entry_outside_the_field(tmp_path, capsys, entry):
    code = gp.mds_code(4, 3, field_order=8).to_dict()
    code["generator"][1][2] = entry
    code_file = tmp_path / "code.json"
    code_file.write_text(json.dumps(code))
    assert cli.main(["eval", "--spec", EX1, "--code", str(code_file)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and f"{entry} is not an element of GF(2^3)" in err


def test_eval_reads_a_prime_field_entry_as_its_residue(tmp_path, capsys):
    code = gp.mds_code(4, 3, field_order=7).to_dict()
    outputs = []
    for shift in (0, 7, -14):
        code["generator"][1][2] += shift
        code_file = tmp_path / "code.json"
        code_file.write_text(json.dumps(code))
        out_file = tmp_path / "eval.json"
        assert cli.main(["eval", "--spec", EX1, "--code", str(code_file), "--out", str(out_file)]) == 0
        outputs.append(out_file.read_text())
    assert code["generator"][1][2] < 0
    assert outputs[0] == outputs[1] == outputs[2]
    capsys.readouterr()


def test_eval_takes_a_19_digit_prime_order_at_once(tmp_path, capsys):
    """Miller-Rabin decides q at once, where trial division took minutes;
    an order from 2^64 is refused by its digit count."""
    code_file = tmp_path / "code.json"
    q = 4611686018427387847  # 2^62 - 57
    code = {"q": q, "generator": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, q - 1, 2]]}
    code_file.write_text(json.dumps(code))
    start = time.perf_counter()
    assert cli.main(["eval", "--spec", EX1, "--code", str(code_file)]) == 0
    assert time.perf_counter() - start < 1
    assert "average latency" in capsys.readouterr().out
    code["q"] = 2**64 + 1
    code_file.write_text(json.dumps(code))
    assert cli.main(["eval", "--spec", EX1, "--code", str(code_file)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "unsupported field order of 20 digits" in err


@pytest.mark.parametrize("digits", [5000, 1001])
@pytest.mark.parametrize("payload", ["code", "placement"])
def test_long_integers_in_code_and_placement_files_exit_5(tmp_path, capsys, payload, digits):
    """A code or placement file holds its integers to MAX_DIGITS like a
    network file: past it eval exits 5, before int() meets the
    interpreter's 4,300-digit conversion limit, and prints nothing."""
    big = "1" * digits
    path = tmp_path / f"{payload}.json"
    if payload == "code":
        path.write_text(f'{{"q": {big}, "generator": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]}}')
    else:
        path.write_text(f'[["A", 2], ["B", 1], ["C", {big}], ["D", 0]]')
    assert cli.main(["eval", "--spec", EX1, f"--{payload}", str(path)]) == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("budget exceeded:") and "1000 digits" in err


def test_a_1000_digit_field_order_is_unsupported(tmp_path, capsys):
    """At MAX_DIGITS digits q is read, and refused as a field order."""
    path = tmp_path / "code.json"
    path.write_text(f'{{"q": {"1" * 1000}, "generator": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]}}')
    assert cli.main(["eval", "--spec", EX1, "--code", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "unsupported field order of 1000 digits" in err


def test_a_malformed_long_literal_is_an_input_error(tmp_path, capsys):
    """Only a well-formed literal is refused by the digit budget; a
    malformed one is an input error however many digits it holds."""
    data = json.loads(Path(EX1).read_text())
    data["rtt"][0][1] = data["rtt"][1][0] = "x" + "1" * 5000
    path = tmp_path / "net.json"
    path.write_text(json.dumps(data))
    assert cli.main(["validate", "--spec", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Invalid literal" in err


def test_a_supply_graph_count_past_the_digit_budget_exits_5(tmp_path, capsys):
    """A planted square, whose conflict graph is a K4, plus 246 nodes at
    RTT 100 from every other node, k = 3: each of those picks 2 of 249
    tied peers, so the supply-graph count has about 1,100 digits.  Plan
    used to report the square as the certificate of infeasibility (exit
    4), and with more nodes crashed while printing the count."""
    n = 250
    rtt = [[0 if u == v else 100 for v in range(n)] for u in range(n)]
    for a in range(4):
        for b in range(4):
            if a != b:
                rtt[a][b] = 14 if (a - b) % 4 == 2 else 10
    spec = gp.make_spec([f"n{i}" for i in range(n)], rtt, [[F(1, 3 * n)] * 3] * n, 3)
    path = tmp_path / "wide.json"
    gp.save_spec(spec, str(path))
    prefix = str(tmp_path / "wide")
    for argv in (["plan"], ["export", "--all-nngs", "--out", prefix]):
        assert cli.main([*argv, "--spec", str(path)]) == 5
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("budget exceeded:") and "1000 digits" in err
    assert list(tmp_path.iterdir()) == [path]


def test_validate_refuses_an_expanded_id_collision(tmp_path, capsys):
    data = json.loads(Path(EX1).read_text())
    data["nodes"][0]["capacity"] = 2
    data["nodes"][1]["id"] = "A#1"
    path = tmp_path / "net.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "report.json"
    assert cli.main(["validate", "--spec", str(path), "--out", str(out)]) == 3
    report = json.loads(out.read_text())
    assert report["ok"] is False
    assert [v["kind"] for v in report["violations"]] == ["expanded-id", "triangle"]
    collision = "error: [expanded-id] expanded id 'A#1' collides with an existing node id"
    assert collision in capsys.readouterr().err
    for command in ("plan", "oracle", "export", "expand"):
        assert cli.main([command, "--spec", str(path), "--out", str(tmp_path / "x")]) == 3
        assert collision in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == sorted([path, out])


def test_integral_decimal_counts_are_accepted(tmp_path, capsys):
    data = {
        "files": 2.0,
        "nodes": [{"id": "a", "capacity": 2.0, "demands": [0.25, 0.25]},
                  {"id": "b", "demands": [0.25, 0.25]}],
        "rtt": [[0, 1], [1, 0]],
    }
    path = tmp_path / "net.json"
    path.write_text(json.dumps(data))
    assert cli.main(["expand", "--spec", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out.split("\n", 1)[1])
    assert payload["files"] == 2
    assert [n["id"] for n in payload["nodes"]] == ["a#1", "a#2", "b"]


@pytest.mark.parametrize(
    "entry",
    [["A", None], ["A", 1.5], ["A", "x"], ["A", True], [["A"], 2]],
    ids=["null", "float", "string", "bool", "list-node-id"],
)
def test_eval_rejects_malformed_placement_entry(tmp_path, capsys, entry):
    placement_file = tmp_path / "p.json"
    placement_file.write_text(json.dumps([entry, ["B", 1], ["C", 2], ["D", 0]]))
    assert cli.main(["eval", "--spec", EX1, "--placement", str(placement_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["plan"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate", "--spec", EX1])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--spec", EX1, "--code", EX1, "--budget", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["plan", "--spec", EX1, "--coloring-limit", "5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle", "--spec", EX1, "--budget", "-1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["export", "--spec", EX1, "--all-nngs", "--nng-cap", "-1"])
    assert exc.value.code == 2
    for command in ("plan", "oracle"):  # every supply graph is searched
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--spec", EX1, "--nng-cap", "4"])
        assert exc.value.code == 2


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-c", "from geoplan.cli import main; raise SystemExit(main())",
         "plan", "--spec", EX1],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "average latency: 13/10" in proc.stdout


# --- the solve commands skip the triangle scan ----------------------------


@pytest.fixture(params=["ex1", "breachy-30"])
def solve_case(request, tmp_path):
    """A network file with triangle breaches (ex1 has one; 30 random
    distances have about 2,200), and each solve command's arguments."""
    if request.param == "ex1":
        spec_path = EX1
        spec = gp.example_instance()
    else:
        spec = random_spec(random.Random(0), n=30, k=2)
        spec_path = str(tmp_path / "breachy.json")
        gp.save_spec(spec, spec_path)
    assert any(v.kind == "triangle" for v in gp.validate_spec(spec).violations)
    placement = tmp_path / "placement.json"
    placement.write_text(json.dumps(gp.plan(spec).to_dict()))
    code = tmp_path / "code.json"
    code.write_text(json.dumps(gp.mds_code(spec.node_count, spec.file_count).to_dict()))
    commands = [
        ["plan"],
        ["eval", "--placement", str(placement)],
        ["eval", "--code", str(code)],
        ["oracle", "--budget", str(2**30)],
        ["expand"],
        ["export"],
    ]
    return spec_path, commands


def run_cli(argv, capsys, out_dir):
    """Exit code, stdout, stderr and every file written under ``out_dir``."""
    out_dir.mkdir(exist_ok=True)
    code = cli.main([*argv, "--out", str(out_dir / "report")])
    captured = capsys.readouterr()
    files = {}
    for path in sorted(out_dir.iterdir()):
        files[path.name] = path.read_text()
        path.unlink()
    return code, captured.out, captured.err, files


def no_triangle_scan(*args):
    raise AssertionError("the triangle scan ran on a non-strict solve path")


def test_solve_commands_skip_the_triangle_scan(solve_case, tmp_path, capsys, monkeypatch):
    spec_path, commands = solve_case
    out_dir = tmp_path / "out"
    before = [run_cli([c[0], "--spec", spec_path, *c[1:]], capsys, out_dir) for c in commands]
    monkeypatch.setattr(gp.model, "_triangle_breaches", no_triangle_scan)
    after = [run_cli([c[0], "--spec", spec_path, *c[1:]], capsys, out_dir) for c in commands]
    assert [r[0] for r in after] == [0] * len(commands)
    assert after == before
    assert all(err == "" for _, _, err, _ in after)


def test_verify_plan_skips_the_triangle_scan(monkeypatch):
    specs = [gp.example_instance(), random_spec(random.Random(0), n=30, k=2)]
    verdicts = [
        gp.verify_plan(spec, gp.plan(spec), budget=2**30).to_dict() for spec in specs
    ]
    monkeypatch.setattr(gp.model, "_triangle_breaches", no_triangle_scan)
    fresh = [gp.make_spec(s.node_ids, s.rtt, s.demands, s.file_count) for s in specs]
    assert [
        gp.verify_plan(spec, gp.plan(spec), budget=2**30).to_dict() for spec in fresh
    ] == verdicts
    assert all(v["status"] == "verified" for v in verdicts)


def test_strict_solve_commands_refuse_a_breach(solve_case, tmp_path, capsys):
    spec_path, commands = solve_case
    for c in commands:
        code, out, err, files = run_cli(
            [c[0], "--spec", spec_path, *c[1:], "--strict"], capsys, tmp_path / "out"
        )
        assert code == 3, c
        assert (out, files) == ("", {}), c
        lines = err.splitlines()
        triangles = [line for line in lines if line.startswith("error: [triangle]")]
        assert 1 <= len(triangles) <= cli.TRIANGLE_WITNESSES, c
        if spec_path != EX1:
            assert lines[-1].startswith("note: ") and "triangle inequality breaches" in lines[-1]


def test_invalid_spec_refuses_without_triangle_lines(tmp_path, capsys):
    data = json.loads(Path(EX1).read_text())
    data["nodes"][0]["demands"][0] = 0.3  # the demands now sum to 11/10
    path = tmp_path / "off.json"
    path.write_text(json.dumps(data))
    for command in ("plan", "oracle", "expand"):
        assert cli.main([command, "--spec", str(path)]) == 3
        err = capsys.readouterr().err
        assert "error: [demand-sum]" in err
        assert "triangle" not in err


def test_validate_bounds_triangle_output(tmp_path, capsys):
    spec = random_spec(random.Random(0), n=30, k=2)
    path = tmp_path / "breachy.json"
    gp.save_spec(spec, str(path))
    for strict in (False, True):
        full = gp.validate_spec(spec, strict=strict).violations
        breaches = [v for v in full if v.kind == "triangle"]
        assert len(breaches) > cli.TRIANGLE_WITNESSES
        out_file = tmp_path / "validation.json"
        argv = ["validate", "--spec", str(path), "--out", str(out_file)]
        assert cli.main(argv + ["--strict"] * strict) == (3 if strict else 0)
        err = capsys.readouterr().err.splitlines()
        payload = json.loads(out_file.read_text())
        assert payload["triangle_breaches"] == len(breaches)
        shown = breaches[: cli.TRIANGLE_WITNESSES]
        assert payload["violations"] == [
            {"kind": v.kind, "severity": v.severity, "message": v.message} for v in shown
        ]
        assert err == [f"{v.severity}: [triangle] {v.message}" for v in shown] + [
            f"note: {len(breaches) - cli.TRIANGLE_WITNESSES} more triangle inequality "
            f"breaches not shown, {len(breaches)} in all"
        ]
