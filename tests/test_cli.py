"""Command-line interface."""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import geoplan as gp
from geoplan import cli

F = Fraction

DATA = Path(__file__).parent / "data"
EX1 = str(DATA / "ex1.json")


@pytest.fixture
def infeasible_file(tmp_path):
    path = tmp_path / "bad.json"
    gp.save_spec(gp.infeasible_instance(), str(path))
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
    assert [v["kind"] for v in payload["violations"]] == ["triangle"]


def test_validate_strict_fails(capsys):
    assert cli.main(["validate", "--spec", EX1, "--strict"]) == 3
    err = capsys.readouterr().err
    assert "[triangle]" in err


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


def test_oracle_budget_exit(capsys):
    assert cli.main(["oracle", "--spec", EX1, "--budget", "10"]) == 5
    assert "budget exceeded" in capsys.readouterr().err


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


def test_export_all_graphs(tmp_path):
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
    ],
    ids=["node-not-object", "node-without-id", "null-demand", "boolean-rtt", "nodes-not-list",
         "fractional-files", "boolean-files", "fractional-capacity", "boolean-capacity"],
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


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-c", "from geoplan.cli import main; raise SystemExit(main())",
         "plan", "--spec", EX1],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "average latency: 13/10" in proc.stdout
