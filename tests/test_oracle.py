"""Independent brute-force checker."""

from __future__ import annotations

import dataclasses
import inspect
import math
import random
import sys
from fractions import Fraction

import pytest

import geoplan as gp
from conftest import random_spec, tie_heavy_spec
from crosscheck import example_instance_uniform, infeasible_instance, product_oracle

F = Fraction


def test_oracle_example_admissible(ex1):
    res = gp.brute_force_placement(ex1)
    assert res.mode == "admissible_only"
    assert res.best_value == F(13, 10)
    assert res.search_space == 81
    assert res.scored == 6
    assert [w.files_by_node for w in res.witnesses] == [((2,), (1,), (2,), (0,))]
    assert "graphs_truncated" not in res.to_dict()
    assert not res.witnesses_capped


def test_oracle_example_unrestricted(ex1):
    res = gp.brute_force_placement(ex1, mode="unrestricted")
    assert res.best_value == F(7, 10)
    # every surjection is scored
    assert res.scored == 36
    assert res.search_space == 81
    assert [w.files_by_node for w in res.witnesses] == [((0,), (1,), (2,), (2,))]


def test_unrestricted_never_loses_to_admissible():
    rng = random.Random(71)
    for _ in range(25):
        spec = random_spec(rng, max_nodes=5, max_files=3)
        adm = gp.brute_force_placement(spec)
        free = gp.brute_force_placement(spec, mode="unrestricted")
        assert free.best_value is not None
        if adm.best_value is not None:
            assert free.best_value <= adm.best_value
            assert free.scored >= adm.scored


def test_oracle_uniform_witnesses():
    res = gp.brute_force_placement(example_instance_uniform())
    assert res.best_value == 2
    assert len(res.witnesses) == 6
    assert not res.witnesses_capped
    assert ((0,), (1,), (0,), (2,)) in {w.files_by_node for w in res.witnesses}


def test_oracle_witness_cap():
    res = gp.brute_force_placement(example_instance_uniform(), witness_cap=2)
    assert res.best_value == 2
    assert len(res.witnesses) == 2
    assert res.witnesses_capped


def test_oracle_infeasible_instance():
    res = gp.brute_force_placement(infeasible_instance())
    assert res.best_value is None
    assert res.scored == 0
    assert res.witnesses == ()


def test_oracle_budget_guard(ex1):
    with pytest.raises(gp.BudgetExceededError, match="81 placements"):
        gp.brute_force_placement(ex1, budget=10)


def test_oracle_rejects_unknown_mode(ex1):
    with pytest.raises(gp.InvalidInputError, match="bogus"):
        gp.brute_force_placement(ex1, mode="bogus")


def test_oracle_dict(ex1):
    data = gp.brute_force_placement(ex1).to_dict()
    assert data["schema"] == "oracle-result/1"
    assert data["best"] == "13/10"
    assert data["witnesses"] == 1
    assert data["search_space"] == 81
    assert data["scored"] == 6


def test_oracle_multi_capacity_projection(ex1):
    spec = gp.make_spec(ex1.node_ids, ex1.rtt, ex1.demands, 3, capacities=(2, 1, 1, 1))
    res = gp.brute_force_placement(spec)
    assert res.best_value == F(9, 10)
    assert ((0, 2), (1,), (2,), (0,)) in {w.files_by_node for w in res.witnesses}


def test_verify_accepts_honest_plan(ex1):
    verdict = gp.verify_plan(ex1, gp.plan(ex1))
    assert verdict.status == "verified"
    assert verdict.expected_value == F(13, 10)
    assert verdict.counterexample is None
    data = verdict.to_dict()
    assert data["schema"] == "verdict/1"
    assert data["expected"] == "13/10"


def test_verify_refutes_tampered_value(ex1):
    report = gp.plan(ex1)
    tampered = dataclasses.replace(report, value=report.value - F(1, 10))
    verdict = gp.verify_plan(ex1, tampered)
    assert verdict.status == "refuted"
    assert "evaluates to 13/10" in verdict.message
    assert verdict.expected_value == F(13, 10)


def test_verify_refutes_swapped_placement(ex1):
    report = gp.plan(ex1)
    tampered = dataclasses.replace(
        report, placement=gp.Placement(((0,), (1,), (2,), (0,)))
    )
    verdict = gp.verify_plan(ex1, tampered)
    assert verdict.status == "refuted"


def test_verify_refutes_suboptimal_claim(ex1):
    # a consistent report about a worse admissible placement
    placement = gp.Placement(((2,), (0,), (2,), (1,)))
    latency = gp.eval_uncoded(ex1, placement)
    report = gp.plan(ex1)
    tampered = dataclasses.replace(
        report,
        placement=placement,
        value=latency.average,
        latency=latency,
        file_map=gp.FileMap((2, 0, 1), latency.average),
    )
    assert latency.average > F(13, 10)
    verdict = gp.verify_plan(ex1, tampered)
    assert verdict.status == "refuted"
    assert verdict.expected_value == F(13, 10)
    assert verdict.counterexample is not None


def test_verify_confirms_infeasibility():
    bad = infeasible_instance()
    verdict = gp.verify_plan(bad, gp.plan(bad))
    assert verdict.status == "verified"


def test_verify_unverified_when_over_budget(ex1):
    verdict = gp.verify_plan(ex1, gp.plan(ex1), budget=10)
    assert verdict.status == "unverified"


def test_verify_multi_capacity(ex1):
    spec = gp.make_spec(ex1.node_ids, ex1.rtt, ex1.demands, 3, capacities=(2, 1, 1, 1))
    assert gp.verify_plan(spec, gp.plan(spec)).status == "verified"


def test_oracle_matches_planner_on_random_instances():
    rng = random.Random(73)
    agreements = 0
    for _ in range(30):
        spec = random_spec(rng, max_nodes=6, max_files=3)
        report = gp.plan(spec)
        oracle = gp.brute_force_placement(spec)
        if isinstance(report, gp.InfeasiblePlan):
            assert oracle.best_value is None
            continue
        assert oracle.best_value == report.value
        assert gp.verify_plan(spec, report).status == "verified"
        agreements += 1
    assert agreements >= 10


def test_planner_equals_oracle_past_64_supply_graphs():
    """Tie-heavy networks with more than 64 supply graphs, where a graph
    cap used to hide the optimum.  On unit networks the plan is the
    oracle's first witness: the lexicographically smallest optimal
    file vector."""
    rng = random.Random(157)
    checked = unit = 0
    while checked < 60:
        spec = tie_heavy_spec(
            rng, lambda work: work.file_count**work.node_count <= 20_000
            and gp.enumerate_nngs(work).total > 64, multi=checked % 2 == 1
        )
        work = gp.expand_multifile(spec).network
        checked += 1
        report = gp.plan(spec)
        oracle = gp.brute_force_placement(spec)
        if isinstance(report, gp.InfeasiblePlan):
            assert oracle.best_value is None
            continue
        assert report.value == oracle.best_value
        assert report.stats.graphs == gp.enumerate_nngs(work).total
        if spec.is_unit_capacity:
            assert report.placement == oracle.witnesses[0]
            unit += 1
    assert unit >= 10


def test_depth_first_search_equals_product_loop():
    """The depth-first search against the exhaustive product loop on 200
    tie-heavy networks, a third of them multi-capacity: best value,
    counts, witnesses in order and the cap flag, at witness caps 1, 2
    and 64.  Unrestricted mode, whose only cut is surjectivity, is
    compared on the networks of at most 2,500 placements, which keeps
    the test to a few seconds."""
    rng = random.Random(211)
    caps = (1, 2, 64)
    seen = {"capped": 0, "empty": 0, "multi_witness": 0, "unrestricted": 0}
    for i in range(200):
        spec = tie_heavy_spec(
            rng, lambda work: work.file_count**work.node_count <= 20_000, multi=i % 3 == 2
        )
        work = gp.expand_multifile(spec).network
        modes = ["admissible_only"]
        if work.file_count**work.node_count <= 2_500:
            modes.append("unrestricted")
            seen["unrestricted"] += 1
        for mode in modes:
            expected = product_oracle(spec, mode, caps)
            for cap, want in zip(caps, expected):
                got = gp.brute_force_placement(spec, mode, witness_cap=cap)
                assert got == want, (i, mode, cap)
            seen["capped"] += expected[0].witnesses_capped
            seen["empty"] += expected[0].best_value is None
            seen["multi_witness"] += len(expected[-1].witnesses) > 1
    assert seen["unrestricted"] >= 140
    assert min(seen.values()) >= 20, seen


def geometric_spec(rng, n, k):
    """Nodes at random points of a 100 x 100 square, RTT the rounded
    Euclidean distance, demand weights 1 to 20."""
    points = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)]
    rtt = [[round(math.dist(p, q)) for q in points] for p in points]
    weights = [[rng.randint(1, 20) for _ in range(k)] for _ in range(n)]
    total = sum(map(sum, weights))
    demands = [[F(w, total) for w in row] for row in weights]
    return gp.make_spec([f"g{i}" for i in range(n)], rtt, demands, k)


def test_planner_equals_oracle_on_larger_geometric_networks():
    """Two networks of each size from 16 to 20 nodes at k = 2, and six
    14-node networks at k = 3 (3^14 placements), at least three of them
    feasible: the plan's value is the oracle minimum, and the plan is
    its first witness."""
    rng = random.Random(29)
    specs = [geometric_spec(rng, n, 2) for n in range(16, 21) for _ in range(2)]
    specs += [geometric_spec(rng, 14, 3) for _ in range(6)]
    feasible = 0
    for spec in specs:
        report = gp.plan(spec)
        oracle = gp.brute_force_placement(spec)
        if isinstance(report, gp.InfeasiblePlan):
            assert oracle.best_value is None
            continue
        feasible += 1
        assert report.value == oracle.best_value
        assert report.placement == oracle.witnesses[0]
    assert feasible >= 13


def test_oracle_rescores_each_reported_witness_once_on_the_given_spec(monkeypatch, ex1):
    # capacities (2, 2, 1, 1) give four optimal placements
    spec = gp.make_spec(ex1.node_ids, ex1.rtt, ex1.demands, 3, capacities=(2, 2, 1, 1))
    calls = []
    real = gp.oracle.eval_uncoded

    def counted(network, placement):
        calls.append((network, placement))
        return real(network, placement)

    monkeypatch.setattr(gp.oracle, "eval_uncoded", counted)
    res = gp.brute_force_placement(spec)
    assert len(res.witnesses) > 1
    assert [placement for _, placement in calls] == list(res.witnesses)
    assert all(network is spec for network, _ in calls)


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    """One slot per level: 150 slots under a recursion limit 40 frames
    above the caller."""
    n = 150
    rtt = [[abs(u - v) for v in range(n)] for u in range(n)]
    spec = gp.make_spec([f"p{i}" for i in range(n)], rtt, [[F(1, n)]] * n, 1)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        res = gp.brute_force_placement(spec, mode="unrestricted")
    finally:
        sys.setrecursionlimit(limit)
    assert (res.best_value, res.search_space, res.scored) == (0, 1, 1)


def test_negative_witness_cap_is_refused(ex1):
    with pytest.raises(gp.InvalidInputError, match="witness cap"):
        gp.brute_force_placement(ex1, witness_cap=-1)


def test_witness_cap_zero_reports_no_witness():
    """At cap 0 no witness is kept, and the cap flag says whether an
    optimum exists, as in the product loop."""
    for spec in (example_instance_uniform(), gp.example_instance(), infeasible_instance()):
        (want,) = product_oracle(spec, "admissible_only", (0,))
        got = gp.brute_force_placement(spec, witness_cap=0)
        assert got == want
        assert got.witnesses == ()
        assert got.witnesses_capped == (got.best_value is not None)


def test_each_placement_counts_once():
    """Nodes A and B, capacity 2 each, at RTT 1; k = 2 and only file 0
    is wanted (1/2 at each node).  A node holds one of 00, 01 or 11, so
    ``search_space`` is 3 * 3 = 9.

    Admissible: each slot's nearest peer is its sibling, so A holds
    {0, 1} and so does B.  That is the one placement, (01 01), at
    average 0: ``scored`` is 1 and it is the only witness.

    Unrestricted: the 9 - 2 = 7 placements that store both files are
    scored.  Average 0 needs file 0 at both nodes, so the optimal
    placements in order are (00 01), (01 00) and (01 01): cap 2 reports
    the first two and says more exist."""
    half = F(1, 2)
    spec = gp.make_spec(["A", "B"], [[0, 1], [1, 0]], [[half, 0], [half, 0]], 2, capacities=(2, 2))
    both = ((0, 1), (0, 1))
    for cap, capped in ((0, True), (1, False), (2, False)):
        res = gp.brute_force_placement(spec, witness_cap=cap)
        assert (res.best_value, res.scored, res.search_space) == (0, 1, 9)
        assert [w.files_by_node for w in res.witnesses] == [both][:cap]
        assert res.witnesses_capped == capped
    ordered = [((0, 0), (0, 1)), ((0, 1), (0, 0)), both]
    for cap, capped in ((0, True), (1, True), (2, True), (3, False), (64, False)):
        res = gp.brute_force_placement(spec, "unrestricted", witness_cap=cap)
        assert (res.best_value, res.scored, res.search_space) == (0, 7, 9)
        assert [w.files_by_node for w in res.witnesses] == ordered[:cap]
        assert res.witnesses_capped == capped


def test_sibling_sorted_search_equals_product_loop():
    """Sixty networks of 2 to 5 nodes with capacities 1 to 3 and k of 2
    or 3, so a node may hold more slots than there are files and its
    siblings then share one.  Both modes, at witness caps 0, 1, 2 and
    64, against the product loop over every sibling-sorted slot function."""
    rng = random.Random(331)
    caps = (0, 1, 2, 64)
    seen = {"capped": 0, "multi_witness": 0, "repeated_file": 0}
    checked = 0
    while checked < 60:
        k = rng.choice((2, 3))
        n = rng.randint(2, 5)
        capacities = [rng.choice((1, 2, 2, 3)) for _ in range(n)]
        if sum(capacities) < k or k ** sum(capacities) > 6_000:
            continue
        rtt = [[0] * n for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                rtt[u][v] = rtt[v][u] = rng.randint(1, 3)
        weights = [[rng.randint(0, 4) for _ in range(k)] for _ in range(n)]
        weights[0][0] += 1
        total = sum(map(sum, weights))
        demands = [[F(w, total) for w in row] for row in weights]
        spec = gp.make_spec([f"c{i}" for i in range(n)], rtt, demands, k, capacities=capacities)
        checked += 1
        for mode in gp.oracle.MODES:
            expected = product_oracle(spec, mode, caps)
            for cap, want in zip(caps, expected):
                got = gp.brute_force_placement(spec, mode, witness_cap=cap)
                assert got == want, (checked, mode, cap)
            seen["capped"] += expected[2].witnesses_capped
            seen["multi_witness"] += len(expected[-1].witnesses) > 1
            seen["repeated_file"] += any(
                len(set(files)) < len(files)
                for w in expected[-1].witnesses
                for files in w.files_by_node
            )
    assert min(seen.values()) >= 10, seen


def test_four_file_search_equals_product_loop():
    """Thirty networks with k = 4, capacities 1 or 2 and at most 6 slots,
    where the slowest verify instances live: both modes, at witness caps
    0, 1, 2 and 64, against the product loop over every sibling-sorted
    slot function."""
    rng = random.Random(337)
    caps = (0, 1, 2, 64)
    seen = {"infeasible": 0, "multi_witness": 0, "multi_capacity": 0}
    checked = 0
    while checked < 30:
        n = rng.randint(2, 6)
        capacities = [rng.choice((1, 1, 2)) for _ in range(n)]
        if not 4 <= sum(capacities) <= 6:
            continue
        rtt = [[0] * n for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                rtt[u][v] = rtt[v][u] = rng.randint(1, 4)
        weights = [[rng.randint(0, 4) for _ in range(4)] for _ in range(n)]
        weights[0][0] += 1
        total = sum(map(sum, weights))
        demands = [[F(w, total) for w in row] for row in weights]
        spec = gp.make_spec([f"q{i}" for i in range(n)], rtt, demands, 4, capacities=capacities)
        checked += 1
        for mode in gp.oracle.MODES:
            expected = product_oracle(spec, mode, caps)
            for cap, want in zip(caps, expected):
                got = gp.brute_force_placement(spec, mode, witness_cap=cap)
                assert got == want, (checked, mode, cap)
            seen["infeasible"] += expected[-1].best_value is None
            seen["multi_witness"] += len(expected[-1].witnesses) > 1
        seen["multi_capacity"] += max(capacities) > 1
    assert min(seen.values()) >= 5, seen
