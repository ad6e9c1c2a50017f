"""Seeded input fuzzer for the command line.

Mutations of ``tests/data/ex1.json``, of CSV matrix overrides and of
placement files run through ``cli.main`` for ``validate``, ``plan``,
``eval``, ``oracle`` and ``expand``.  Malformed input must end in one of
the documented exit codes (0, 1, 3, 4 or 5), never in an exception.
Every ``QUOTED_EVERY``-th network is also written with every number
quoted, and must give the same exit codes and stdout as when bare.
"""

from __future__ import annotations

import copy
import functools
import json
import random
from pathlib import Path

from conftest import quote_numbers
from geoplan import cli

DATA = Path(__file__).parent / "data"
BASE = json.loads((DATA / "ex1.json").read_text())
BASE_PLACEMENT = [["A", 2], ["B", 1], ["C", 2], ["D", 0]]

SEED = 1009
CASES = 500
QUOTED_EVERY = 4
DOCUMENTED_EXITS = {0, 1, 3, 4, 5}

#: wrong types, non-numbers, zero denominators, extreme magnitudes
ODD_VALUES = [
    "x", "", None, [], [1, 2], True, False, {}, {"id": "A"},
    "1/0", "0/0", "nan", "inf", "-inf", float("nan"), float("inf"),
    "1e-400", "1e400", "9e99999", "1e-99999", 1e308, 10**40,
    "-1", -1, 0, 0.5, 2.5, "1/3", "-2/7", "0x10", " 2 ", "1_0",
]
COUNTS = [0, -1, 1, 2, 3, 4, 7, 2.5, "2", "1e400", 10**40, 1e308]


def random_slot(rng: random.Random, data):
    """A (container, key) pair naming one value somewhere in ``data``."""
    slots = [(data, key) for key in data] if isinstance(data, dict) else []
    nodes = data.get("nodes") if isinstance(data, dict) else None
    if isinstance(nodes, list):
        slots += [(nodes, i) for i in range(len(nodes))]
        for node in nodes:
            if isinstance(node, dict):
                slots += [(node, key) for key in node]
                demands = node.get("demands")
                if isinstance(demands, list):
                    slots += [(demands, j) for j in range(len(demands))]
    rtt = data.get("rtt") if isinstance(data, dict) else None
    if isinstance(rtt, list):
        slots += [(rtt, i) for i in range(len(rtt))]
        for row in rtt:
            if isinstance(row, list):
                slots += [(row, j) for j in range(len(row))]
    return rng.choice(slots) if slots else None


def mutate_network(rng: random.Random, data) -> None:
    slot = random_slot(rng, data)
    if slot is None:
        return
    container, key = slot
    kind = rng.randrange(6)
    if kind == 0:  # drop a key or an entry
        del container[key]
    elif kind == 1:  # a wrong type or an odd number
        container[key] = rng.choice(ODD_VALUES)
    elif kind == 2:  # a short, long or missing row
        rows = [r for r in (data.get("rtt"), data.get("nodes")) if isinstance(r, list) and r]
        if rows:
            target = rng.choice(rows)
            i = rng.randrange(len(target))
            if isinstance(target[i], list) and target[i] and rng.random() < 0.5:
                target[i].pop() if rng.random() < 0.5 else target[i].append(1)
            else:
                del target[i]
    elif kind == 3:  # a negative or asymmetric cell
        rtt = data.get("rtt")
        if isinstance(rtt, list) and rtt and isinstance(rtt[0], list) and len(rtt[0]) > 1:
            rtt[0][1] = rng.choice([-2, 3, "11/2", 0])
    elif kind == 4:  # zero, negative or non-integral counts
        nodes = data.get("nodes")
        node = rng.choice(nodes) if isinstance(nodes, list) and nodes else None
        if isinstance(node, dict) and rng.random() < 0.5:
            node["capacity"] = rng.choice(COUNTS)
        else:
            data["files"] = rng.choice(COUNTS)
    else:  # swap in a whole odd container
        data[rng.choice(["files", "nodes", "rtt"])] = rng.choice(ODD_VALUES)


def matrix_csv(rng: random.Random, rows) -> str:
    """``rows`` as CSV text, sometimes with a bad cell, a short row or a
    dropped row."""
    rows = [[str(x) for x in row] for row in rows]
    kind = rng.randrange(5)
    i = rng.randrange(len(rows))
    if kind == 0:
        rows[i][rng.randrange(len(rows[i]))] = rng.choice(
            ["x", "1/0", "nan", "", "1e400", "-1", "1e-400", "2/3"])
    elif kind == 1:
        rows[i].pop()
    elif kind == 2:
        del rows[i]
    elif kind == 3:
        rows[i].append("1")
    return "\n".join(",".join(row) for row in rows) + "\n"


def mutate_placement(rng: random.Random):
    placement = copy.deepcopy(BASE_PLACEMENT)
    kind = rng.randrange(7)
    i = rng.randrange(len(placement))
    if kind == 0:
        placement[i][1] = rng.choice([3, -1, 10**30, 1.0, "1", None, [0]])
    elif kind == 1:
        placement[i][0] = rng.choice(["Z", "", None, 0, ["A"]])
    elif kind == 2:
        del placement[i]
    elif kind == 3:
        placement.append(rng.choice([["A", 1], ["A"], [], "A", None]))
    elif kind == 4:
        return {"placement": placement}
    elif kind == 5:
        return rng.choice([{}, {"other": placement}, "A", 3, None, [[["A", 2]]]])
    return placement


def test_mutated_inputs_end_in_documented_exit_codes(tmp_path, capsys, monkeypatch):
    # one parser for all 2,500 runs: building it is most of a run's time
    monkeypatch.setattr(cli, "_build_parser", functools.cache(cli._build_parser))
    rng = random.Random(SEED)
    spec_path = tmp_path / "net.json"
    quoted_path = tmp_path / "quoted.json"
    placement_path = tmp_path / "placement.json"
    rtt_path = tmp_path / "rtt.csv"
    demands_path = tmp_path / "demands.csv"
    out_path = str(tmp_path / "out.json")
    failures = []
    for case in range(CASES):
        data = copy.deepcopy(BASE)
        for _ in range(rng.randint(0, 3)):  # none: only the CSV or placement varies
            mutate_network(rng, data)
        spec_path.write_text(json.dumps(data))
        spec_paths = [spec_path]
        if case % QUOTED_EVERY == 0:
            quoted_path.write_text(json.dumps(quote_numbers(data)))
            spec_paths.append(quoted_path)
        overrides = []
        if rng.random() < 0.2:
            rtt_path.write_text(matrix_csv(rng, BASE["rtt"]))
            overrides += ["--rtt-csv", str(rtt_path)]
        if rng.random() < 0.2:
            demands_path.write_text(matrix_csv(rng, [n["demands"] for n in BASE["nodes"]]))
            overrides += ["--demands-csv", str(demands_path)]
        placement = mutate_placement(rng) if rng.random() < 0.5 else BASE_PLACEMENT
        placement_path.write_text(json.dumps(placement))
        for command in (["validate"], ["plan"], ["eval", "--placement", str(placement_path)],
                        ["oracle"], ["expand"]):
            runs = []
            for path in spec_paths:
                argv = [*command, "--spec", str(path), *overrides, "--out", out_path]
                try:
                    code = cli.main(argv)
                except Exception as exc:  # noqa: BLE001  the finding is any exception
                    code = f"{type(exc).__name__}: {exc}"
                runs.append((code, capsys.readouterr().out))
            code = runs[0][0]
            if code not in DOCUMENTED_EXITS:
                failures.append((case, command[0], code, json.dumps(data)[:200]))
            if runs[1:] and runs[1] != runs[0]:
                failures.append((case, command[0], "quoted", runs, json.dumps(data)[:200]))
    assert failures == []
