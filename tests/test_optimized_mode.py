"""Audits run under ``python -O`` too: the package raises instead of
asserting, so optimized mode renders the same reports."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

RENDER = """
import json
import geoplan as gp
from crosscheck import infeasible_instance

print(__debug__)
ex1 = gp.example_instance()
multi = gp.make_spec(ex1.node_ids, ex1.rtt, ex1.demands, 3, capacities=(2, 1, 1, 1))
for spec in (ex1, multi, infeasible_instance()):
    report = gp.plan(spec)
    print(json.dumps(report.to_dict(), sort_keys=True))
    print(json.dumps(gp.verify_plan(spec, report).to_dict(), sort_keys=True))
for files in ((2, 1, 2, 0), (0, 1, 2, 0)):
    report = gp.eval_uncoded(ex1, files)
    print(report.meets_bounds(), json.dumps(report.to_dict(), sort_keys=True))
report, recovery = gp.eval_linear_code(ex1, gp.mds_code(4, 3))
print(report.meets_bounds(), json.dumps(report.to_dict(), sort_keys=True))
"""


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "geoplan").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_optimized_mode_renders_the_same_reports():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(SRC), str(TESTS)))}
    plain, optimized = (
        subprocess.run(
            [sys.executable, *flags, "-c", RENDER],
            capture_output=True, text=True, env=env, check=True,
        ).stdout
        for flags in ([], ["-O"])
    )
    debug, reports = plain.split("\n", 1)
    assert debug == "True"
    assert optimized == f"False\n{reports}"
    assert reports.count('"status": "verified"') == 3
    assert reports.count('"certificate": ["A", "B", "C", "D"]') == 1
    assert [line.split(" ", 1)[0] for line in reports.splitlines()[-3:]] == ["True", "False", "True"]
