"""End-to-end planning pipeline."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

import geoplan as gp
from conftest import random_spec
from crosscheck import brute_force_assignment
from geoplan import cli

F = Fraction


def paired_instance():
    """Three far-apart mutual-nearest pairs, two files.

    The conflict graph is three disjoint edges, so exactly four
    partitions into two classes are proper.
    """
    ids = tuple(f"u{i}" for i in range(6))
    block = (0, 0, 1, 1, 2, 2)
    inter = {(0, 1): 100, (0, 2): 102, (1, 2): 104}
    rtt = [[0] * 6 for _ in range(6)]
    for i in range(6):
        for j in range(i + 1, 6):
            if block[i] == block[j]:
                rtt[i][j] = rtt[j][i] = 1
            else:
                key = tuple(sorted((block[i], block[j])))
                rtt[i][j] = rtt[j][i] = inter[key]
    demands = [[F(1, 12)] * 2 for _ in range(6)]
    return gp.make_spec(ids, rtt, demands, 2)


def test_plan_example(ex1):
    report = gp.plan(ex1)
    assert report.value == F(13, 10)
    assert report.placement.files_by_node == ((2,), (1,), (2,), (0,))
    assert report.placement_pairs() == [("A", 2), ("B", 1), ("C", 2), ("D", 0)]
    assert report.graph_index == 0
    assert report.coloring.classes == ((0, 2), (1,), (3,))
    assert report.file_map.assignment == (2, 1, 0)
    assert report.exhaustive
    assert report.stats == gp.PlanStats(1, 1, 1, 0, False)
    assert report.trace is None


def test_plan_audits_against_direct_eval(ex1):
    report = gp.plan(ex1)
    assert report.latency.average == report.value == report.file_map.cost
    assert report.latency.meets_bounds()
    again = gp.eval_uncoded(ex1, report.placement)
    assert again.average == report.value


def test_plan_example_dict(ex1):
    data = gp.plan(ex1).to_dict()
    assert data["schema"] == "plan-report/1"
    assert data["status"] == "ok"
    assert data["average"] == "13/10"
    assert data["average_decimal"] == "1.300000"
    assert data["placement"] == [["A", 2], ["B", 1], ["C", 2], ["D", 0]]
    assert data["coloring"] == [["A", "C"], ["B"], ["D"]]
    assert data["file_map"] == [2, 1, 0]
    assert data["in_neighbors"]["A"] == ["B", "D"]
    assert data["exhaustive"] is True
    assert "expanded_placement" not in data
    assert "assignment_trace" not in data


def test_plan_uniform_demands():
    report = gp.plan(gp.example_instance_uniform())
    assert report.value == 2
    # columns of the cost matrix coincide, so the first bijection wins
    assert report.file_map.assignment == (0, 1, 2)
    assert report.placement.files_by_node == ((0,), (1,), (0,), (2,))


def test_plan_with_trace(ex1):
    report = gp.plan(ex1, gp.PlanOptions(with_trace=True))
    assert report.value == F(13, 10)
    assert [s.kind for s in report.trace.steps] == [
        "row_reduce", "matching", "cover", "adjust", "matching",
    ]
    assert "assignment_trace" in report.to_dict()


def test_plan_infeasible():
    outcome = gp.plan(gp.infeasible_instance())
    assert isinstance(outcome, gp.InfeasiblePlan)
    assert outcome.certificate_ids == ("A", "B", "C", "D")
    assert outcome.exhaustive
    data = outcome.to_dict()
    assert data["status"] == "infeasible"
    assert data["certificate"] == ["A", "B", "C", "D"]


def test_infeasible_certificate_is_a_real_obstruction():
    spec = gp.infeasible_instance()
    outcome = gp.plan(spec)
    index = {node_id: v for v, node_id in enumerate(spec.node_ids)}
    members = [index[node_id] for node_id in outcome.certificate_ids]
    assert len(members) == spec.file_count + 1
    h = gp.build_extended_graph(gp.build_nng(spec))
    masks = h.adjacency_masks()
    for a in members:
        for b in members:
            if a != b:
                assert masks[a] >> b & 1


def test_plan_multi_capacity(ex1):
    spec = gp.make_spec(ex1.node_ids, ex1.rtt, ex1.demands, 3, capacities=(2, 1, 1, 1))
    report = gp.plan(spec)
    assert report.value == F(9, 10)
    assert report.placement.files_by_node == ((0, 2), (1,), (2,), (0,))
    assert report.expanded_ids == ("A#1", "A#2", "B", "C", "D")
    assert report.expanded_placement.files_by_node == ((2,), (0,), (1,), (2,), (0,))
    assert report.placement_pairs() == [
        ("A", 0), ("A", 2), ("B", 1), ("C", 2), ("D", 0),
    ]
    data = report.to_dict()
    assert data["expanded_placement"] == [
        ["A#1", 2], ["A#2", 0], ["B", 1], ["C", 2], ["D", 0],
    ]
    # more room can only help
    assert report.value <= gp.plan(ex1).value


def test_plan_multi_capacity_audit(ex1):
    spec = gp.make_spec(ex1.node_ids, ex1.rtt, ex1.demands, 3, capacities=(2, 1, 1, 1))
    report = gp.plan(spec)
    direct = gp.eval_uncoded(spec, report.placement)
    assert direct.average == report.value
    assert direct.meets_bounds()


def test_plan_single_file():
    spec = gp.make_spec(
        ("a", "b"), ((0, 3), (3, 0)), ((F(1, 2),), (F(1, 2),)), 1
    )
    report = gp.plan(spec)
    assert report.value == 0
    assert report.placement.files_by_node == ((0,), (0,))
    assert report.exhaustive


def test_graph_cap_marks_plan_non_exhaustive():
    demands = [[F(1, 12)] * 3 for _ in range(4)]
    tied = gp.make_spec(
        ("P", "Q", "R", "S"),
        ((0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)),
        demands,
        3,
    )
    capped = gp.plan(tied, gp.PlanOptions(nng_cap=4))
    assert capped.value == F(2, 3)
    assert not capped.exhaustive
    assert capped.stats.truncated
    full = gp.plan(tied, gp.PlanOptions(nng_cap=100))
    assert full.value == F(2, 3)
    assert full.exhaustive
    assert full.stats.graphs == 81


def test_paired_instance_is_planned_exactly():
    spec = paired_instance()
    full = gp.plan(spec)
    assert full.value == F(1, 2)
    assert full.exhaustive
    assert full.stats == gp.PlanStats(1, 1, 1, 0, False)
    assert full.placement.files_by_node == ((0,), (1,), (0,), (1,), (0,), (1,))
    # the option is accepted and no longer changes the search
    assert gp.plan(spec, gp.PlanOptions(coloring_limit=2)) == full


def test_table_budget_refuses_instead_of_truncating(monkeypatch, tmp_path):
    monkeypatch.setattr(gp.coloring, "MAX_TABLE_ROWS", 1)
    with pytest.raises(gp.BudgetExceededError, match="past 1 rows"):
        gp.plan(paired_instance())
    path = tmp_path / "paired.json"
    gp.save_spec(paired_instance(), str(path))
    assert cli.main(["plan", "--spec", str(path)]) == 5


def test_plan_rejects_invalid_spec(ex1):
    broken = gp.make_spec(ex1.node_ids, ex1.rtt, ex1.demands, 5)
    with pytest.raises(gp.InvalidSpecError):
        gp.plan(broken)


def test_strict_mode_escalates_triangle_warning(ex1):
    assert gp.plan(ex1).value == F(13, 10)
    with pytest.raises(gp.InvalidSpecError):
        gp.plan(ex1, gp.PlanOptions(strict=True))


def test_plan_random_instances_stay_consistent():
    rng = random.Random(61)
    solved = 0
    for _ in range(40):
        spec = random_spec(rng)
        report = gp.plan(spec)
        if isinstance(report, gp.InfeasiblePlan):
            continue
        solved += 1
        assert report.stats.colorings == (
            report.stats.assignments_solved + report.stats.assignments_pruned
        )
        direct = gp.eval_uncoded(spec, report.placement)
        assert direct.average == report.value
        assert direct.meets_bounds()
    assert solved >= 10


def test_plan_multi_random_projection_consistency():
    rng = random.Random(67)
    checked = 0
    for _ in range(25):
        spec = random_spec(rng, multi=True)
        report = gp.plan(spec)
        if isinstance(report, gp.InfeasiblePlan):
            continue
        checked += 1
        slots = sum(len(files) for files in report.placement.files_by_node)
        assert slots == sum(spec.capacities)
        assert gp.eval_uncoded(spec, report.placement).average == report.value
    assert checked >= 5


# Skews every direct evaluation the planner and the oracle audit against,
# then the planner's matrix method, and records which audits still fire
# with asserts compiled out.
SKEWED_AUDITS = """
import dataclasses, sys
import geoplan as gp
from geoplan import oracle, planner

real = gp.eval_uncoded

def skewed(spec, placement):
    report = real(spec, placement)
    return dataclasses.replace(report, average=report.average + 1)

fired = [str(sys.flags.optimize)]
for module, run in ((planner, gp.plan), (oracle, gp.brute_force_placement)):
    module.eval_uncoded = skewed
    try:
        run(gp.example_instance())
    except gp.AuditError:
        fired.append(module.__name__)
    module.eval_uncoded = real

hungarian = planner.hungarian_min_assignment

def skewed_matrix_method(cost, **kwargs):
    file_map, trace = hungarian(cost, **kwargs)
    return dataclasses.replace(file_map, cost=file_map.cost + 1), trace

planner.hungarian_min_assignment = skewed_matrix_method
try:
    gp.plan(gp.example_instance())
except gp.AuditError as exc:
    if "elimination" in str(exc):
        fired.append("elimination")
print(*fired)
"""


def test_audits_fire_under_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SKEWED_AUDITS],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "geoplan.planner", "geoplan.oracle", "elimination"]


def test_transmit_costs_are_built_only_for_uncertified_graphs(monkeypatch):
    calls = []
    real = gp.planner.tx_latency_matrix

    def counted(spec, nng):
        calls.append(nng)
        return real(spec, nng)

    monkeypatch.setattr(gp.planner, "tx_latency_matrix", counted)
    assert isinstance(gp.plan(gp.infeasible_instance()), gp.InfeasiblePlan)
    assert calls == []
    gp.plan(gp.example_instance())
    assert len(calls) == 1

    # tied RTTs: several supply graphs, only some of them free of a
    # conflict triangle (a 5-cycle has none and still no 2-coloring)
    rng = random.Random(71)
    seen_mixed = False
    for _ in range(60):
        n = rng.randint(4, 7)
        rtt = [[0] * n for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                rtt[u][v] = rtt[v][u] = rng.randint(1, 3)
        spec = gp.make_spec([f"t{i}" for i in range(n)], rtt, [[F(1, 2 * n)] * 2] * n, 2)
        graphs = gp.enumerate_nngs(spec).graphs
        uncertified = [
            nng for nng in graphs
            if gp.conflict_clique(gp.build_extended_graph(nng), 2) is None
        ]
        seen_mixed |= 0 < len(uncertified) < len(graphs)
        calls.clear()
        gp.plan(spec, gp.PlanOptions(with_trace=True))
        assert calls == uncertified
    assert seen_mixed


def tied_or_distinct_spec(rng, n, k):
    """Unit network: RTTs all distinct, or drawn from 1..4 so that ties
    give several supply graphs."""
    tied = rng.random() < 0.5
    pairs = n * (n - 1) // 2
    dists = [rng.randint(1, 4) for _ in range(pairs)] if tied else rng.sample(range(1, 1000), pairs)
    rtt = [[0] * n for _ in range(n)]
    it = iter(dists)
    for u in range(n):
        for v in range(u + 1, n):
            rtt[u][v] = rtt[v][u] = next(it)
    weights = [[rng.randint(0, 5) for _ in range(k)] for _ in range(n)]
    weights[0][0] += 1
    total = sum(map(sum, weights))
    demands = [[F(w, total) for w in row] for row in weights]
    return gp.make_spec([f"x{i}" for i in range(n)], rtt, demands, k)


def enumerated_optimum(spec, nng_cap=64):
    """(value, graph index, files) minimizing over every supply graph,
    every partition from ``iter_colorings`` and every class-to-file
    bijection, on Fractions; ties take the lowest graph index, then the
    lexicographically smallest file vector.  None when nothing colors."""
    k = spec.file_count
    best = None
    for g_idx, nng in enumerate(gp.enumerate_nngs(spec, cap=nng_cap).graphs):
        tx = gp.tx_latency_matrix(spec, nng).values
        for coloring in gp.iter_colorings(gp.build_extended_graph(nng), k):
            for perm in permutations(range(k)):
                files = [0] * spec.node_count
                for idx, members in enumerate(coloring.classes):
                    for s in members:
                        files[s] = perm[idx]
                value = sum(tx[s][j] for s, j in enumerate(files))
                key = (value, g_idx, tuple(files))
                if best is None or key < best:
                    best = key
    return best


def test_elimination_equals_enumerated_colorings():
    rng = random.Random(131)
    outcomes = {"ok": 0, "infeasible": 0}
    for _ in range(150):
        k = rng.choice((2, 3, 4))
        spec = tied_or_distinct_spec(rng, rng.randint(k, 10 if k == 2 else 8), k)
        report = gp.plan(spec)
        expected = enumerated_optimum(spec)
        # only the supply-graph cap (64) cuts the search
        assert report.exhaustive is not gp.enumerate_nngs(spec).truncated
        if expected is None:
            assert isinstance(report, gp.InfeasiblePlan)
            outcomes["infeasible"] += 1
            continue
        value, g_idx, files = expected
        assert (report.value, report.graph_index) == (value, g_idx)
        assert report.expanded_placement.as_single_files() == files
        # the matrix method on the winning partition agrees with factorial search
        cost = gp.color_cost_matrix(report.coloring, gp.tx_latency_matrix(spec, report.graph))
        assert brute_force_assignment(cost) == report.file_map
        outcomes["ok"] += 1
    assert min(outcomes.values()) >= 10


def test_many_components_are_planned_exhaustively():
    """Eight far-apart clusters, k = 2: 128 partitions, past the 32 a
    coloring budget used to stop at.  The plan is exhaustive and no
    worse than the best of the first 32 colorings."""
    rng = random.Random(137)
    sizes = [2, 3, 2, 3, 2, 2, 3, 2]
    cluster = [c for c, size in enumerate(sizes) for _ in range(size)]
    n = len(cluster)
    near = iter(rng.sample(range(1, 500), n * n))
    far = iter(rng.sample(range(1000, 9000), n * n))
    rtt = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            rtt[u][v] = rtt[v][u] = next(near if cluster[u] == cluster[v] else far)
    weights = [[rng.randint(1, 20) for _ in range(2)] for _ in range(n)]
    total = sum(map(sum, weights))
    spec = gp.make_spec(
        [f"c{i}" for i in range(n)], rtt, [[F(w, total) for w in row] for row in weights], 2
    )
    nng = gp.build_nng(spec)
    colorings = list(gp.iter_colorings(gp.build_extended_graph(nng), 2))
    assert len(colorings) == 2 ** (len(sizes) - 1)

    tx = gp.tx_latency_matrix(spec, nng)

    def best_of(some):
        return min(brute_force_assignment(gp.color_cost_matrix(c, tx)).cost for c in some)

    report = gp.plan(spec, gp.PlanOptions(coloring_limit=32))
    assert report.exhaustive
    assert report.value == best_of(colorings) <= best_of(colorings[:32])
