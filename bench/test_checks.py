"""The benchmark's output checks must reject corrupted answers.

Run from the repository root:  python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import geoplan as gp  # noqa: E402

import checks  # noqa: E402
from run import load_workloads, make_api, run_op  # noqa: E402
from workloads import generate  # noqa: E402

WORKLOADS = load_workloads()


def answered(workload: str, pick=lambda inst: True):
    """First generated instance of a workload that ``pick`` accepts,
    with its checker view and the parsed output of its op."""
    spec = WORKLOADS[workload]
    inst = next(i for i in generate(workload, spec, 7) if pick(i))
    text = run_op(make_api(gp), gp, inst, gp.PlanOptions(**spec["plan_options"]))
    return inst, checks.Network(inst.network), json.loads(text)


def latencies(net, placement):
    held = {node_id: [] for node_id in net.ids}
    for node_id, j in placement:
        held[node_id].append(j)
    return [
        [min(net.rtt[v][s] for s, u in enumerate(net.ids) if j in held[u]) for j in range(net.k)]
        for v in range(net.n)
    ]


def test_plan_check_accepts_then_rejects_an_average_off_by_a_thousandth():
    _, net, report = answered("plan-k2-geo")
    assert checks.check_plan(net, report) == []
    report["average"] = str(Fraction(report["average"]) + Fraction(1, 1000))
    assert any("average" in p for p in checks.check_plan(net, report))


def test_plan_check_rejects_a_placement_moved_off_its_floor():
    _, net, report = answered("plan-k2-geo")
    for i, (node_id, j) in enumerate(report["placement"]):
        moved = [list(pair) for pair in report["placement"]]
        moved[i][1] = 1 - j
        lat = latencies(net, moved) if {f for _, f in moved} == {0, 1} else None
        if lat and any(max(row) != floor for row, floor in zip(lat, net.floors())):
            break
    else:
        raise AssertionError("no single move leaves a floor")
    # keep the average consistent so only the floor check can object
    report["placement"] = moved
    report["average"] = str(checks.average(net, lat))
    problems = checks.check_plan(net, report)
    assert problems and all("floor" in p for p in problems)


def test_certificate_check_rejects_a_non_conflicting_pair():
    inst, net, report = answered("plan-k3-infeasible")
    planted = inst.tags["square"]
    assert checks.check_infeasible(net, report, planted) == []
    cert = report["certificate"]
    closed = net.closed_sets()
    first = net.ids.index(cert[0])
    # swap the last member for a node that never shares a closed set with the first
    stranger = next(
        u for u in range(net.n)
        if net.ids[u] not in cert and not any(first in c and u in c for c in closed)
    )
    report["certificate"] = cert[:-1] + [net.ids[stranger]]
    problems = checks.check_infeasible(net, report, planted)
    assert any("never share" in p for p in problems)
    # a missing certificate is a failed op, and wrong unless the planted clique holds
    report["certificate"] = None
    assert checks.check_infeasible(net, report, planted) == [checks.UNCERTIFIED]
    problems = checks.check_infeasible(net, report, planted[:-1] + [net.ids[stranger]])
    assert problems and problems != [checks.UNCERTIFIED]


def test_code_check_rejects_a_recovery_vector_that_does_not_decode():
    inst, net, payload = answered("code-eval", lambda i: i.expect == "decoded" and i.tags["mds"])
    assert checks.check_code(net, inst.code, payload, mds=True) == []
    vector = payload["recovery"]["vectors"][0][0]
    s = next(s for s, x in enumerate(vector) if x)  # rows of a Cauchy code are all nonzero
    vector[s] = 2 if vector[s] == 1 else 1
    problems = checks.check_code(net, inst.code, payload, mds=True)
    assert any("does not decode" in p for p in problems)


def test_verdict_check_needs_verified():
    assert checks.check_verdict({"status": "verified"}) == []
    assert checks.check_verdict({"status": "refuted", "message": "x"})


def test_field_arithmetic_inverts():
    for q in (2, 3, 4, 5, 7, 8, 11, 16, 19):
        f = checks.Field(q)
        assert all(f.mul(a, f.inv(a)) == 1 for a in range(1, q))

