"""Cost matrices and the assignment solvers."""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import pytest

import geoplan as gp
from conftest import random_spec
from crosscheck import brute_force_assignment, out_neighbors, shortest_path_min_assignment

F = Fraction

# the walkthrough cost matrix: rows are the color classes {A,C}, {B},
# {D} of the example network with the published sender costs
GOLDEN = (
    (F(1, 10), F(9, 20), F(9, 20)),
    (F(23, 40), F(9, 40), F(29, 20)),
    (F(23, 40), F(23, 40), F(11, 10)),
)


def test_tx_matrix_example(ex1, ex1_nng):
    tx = gp.tx_latency_matrix(ex1, ex1_nng)
    assert tx.values[0] == (F(1, 10), F(9, 20), F(9, 20))
    assert tx.values[2] == (0, 0, 0)
    assert tx.values[3] == (F(23, 40), F(23, 40), F(11, 10))
    # row B follows directly from the fixture: out(B) = {A, C, D}, so
    # 2*p_A + 7*p_C + 2*p_D entrywise; an earlier hand calculation that
    # gave (5/8, 5/8, 3/2) is reproducible only with tau(B,C) = 5,
    # which contradicts out(B) containing C at distance 7
    expected_b = tuple(
        2 * ex1.demands[0][j] + 7 * ex1.demands[2][j] + 2 * ex1.demands[3][j]
        for j in range(3)
    )
    assert expected_b == (F(5, 8), F(11, 40), F(37, 20))
    assert tx.values[1] == expected_b


def test_tx_row_zero_iff_no_receivers(ex1, ex1_nng):
    # C supplies nobody, so storing anything there is free
    tx = gp.tx_latency_matrix(ex1, ex1_nng)
    out_sets = out_neighbors(ex1_nng)
    assert out_sets[2] == (2,)
    assert all(x == 0 for x in tx.values[2])


def test_tx_matrix_equals_the_out_neighbor_definition():
    """Seeded networks with RTTs in 1..3, k from 1 to 4, and at most 64
    supply graphs each: on every supply graph, the in-edge walk gives
    entry (s, j) = sum of rtt(s, v) * demand(v, j) over the nodes v
    that s serves."""
    rng = random.Random(29)
    networks = tied = graphs = 0
    for k in range(1, 5):
        for _ in range(60):
            n = rng.randint(max(k, 2), 7)
            rtt = [[0] * n for _ in range(n)]
            for u in range(n):
                for v in range(u + 1, n):
                    rtt[u][v] = rtt[v][u] = rng.randint(1, 3)
            weights = [[rng.randint(0, 4) for _ in range(k)] for _ in range(n)]
            weights[0][0] += 1
            total = sum(map(sum, weights))
            demands = [[F(w, total) for w in row] for row in weights]
            spec = gp.make_spec([f"t{i}" for i in range(n)], rtt, demands, k)
            nngs = gp.enumerate_nngs(spec, cap=64)
            if nngs.truncated:
                continue
            networks += 1
            tied += len(nngs.graphs) > 1
            for nng in nngs.graphs:
                want = tuple(
                    tuple(sum(spec.rtt[s][v] * spec.demands[v][j] for v in out) for j in range(k))
                    for s, out in enumerate(out_neighbors(nng))
                )
                assert gp.tx_latency_matrix(spec, nng).values == want
                graphs += 1
    assert networks >= 150 and tied >= 80 and graphs >= 1000, (networks, tied, graphs)


def test_tx_requires_unit_capacity(ex1, ex1_nng):
    multi = gp.make_spec(ex1.node_ids, ex1.rtt, ex1.demands, 3, capacities=(2, 1, 1, 1))
    with pytest.raises(gp.InvalidSpecError):
        gp.tx_latency_matrix(multi, ex1_nng)


def test_color_cost_matrix_example(ex1, ex1_nng):
    tx = gp.tx_latency_matrix(ex1, ex1_nng)
    coloring = gp.find_coloring(gp.build_extended_graph(ex1_nng), 3)
    cost = gp.color_cost_matrix(coloring, tx)
    assert cost.values[0] == (F(1, 10), F(9, 20), F(9, 20))  # A + C
    assert cost.values[1] == tx.values[1]
    assert cost.values[2] == tx.values[3]
    # every sender lands in exactly one class: column sums preserved
    for j in range(3):
        assert sum(row[j] for row in cost.values) == sum(row[j] for row in tx.values)


def test_hungarian_golden_matrix():
    file_map, trace = gp.hungarian_min_assignment(GOLDEN)
    assert file_map.assignment == (2, 1, 0)
    assert file_map.cost == F(5, 4)
    assert trace is None


def test_hungarian_golden_trace():
    _, trace = gp.hungarian_min_assignment(GOLDEN, with_trace=True)
    steps = trace.steps
    assert steps[0].kind == "row_reduce"
    assert steps[0].matrix == (
        (F(0), F(7, 20), F(7, 20)),
        (F(7, 20), F(0), F(49, 40)),
        (F(0), F(0), F(21, 40)),
    )
    assert [s.kind for s in steps] == [
        "row_reduce", "matching", "cover", "adjust", "matching",
    ]
    cover = steps[2]
    assert cover.rows == () and cover.cols == (0, 1)
    assert tuple(s.delta for s in trace.steps if s.kind == "adjust") == (F(7, 20),)
    assert [s.size for s in trace.steps if s.kind == "matching"][-1] == 3


def test_tie_break_is_lexicographic():
    tied = (
        (F(1, 10), F(9, 20), F(9, 20)),
        (F(5, 8), F(5, 8), F(3, 2)),
        (F(23, 40), F(23, 40), F(11, 10)),
    )
    file_map, _ = gp.hungarian_min_assignment(tied)
    assert file_map.cost == F(33, 20)
    # (2, 0, 1) and (2, 1, 0) tie; the smaller wins
    assert file_map.assignment == (2, 0, 1)
    assert shortest_path_min_assignment(tied).assignment == (2, 0, 1)
    assert brute_force_assignment(tied).assignment == (2, 0, 1)


def test_identity_and_negative_entries():
    assert gp.hungarian_min_assignment(((0,),))[0] == gp.FileMap((0,), F(0))
    cost = ((-2, 5), (3, -4))
    file_map, _ = gp.hungarian_min_assignment(cost)
    assert file_map.assignment == (0, 1)
    assert file_map.cost == -6


def test_rejects_non_square():
    with pytest.raises(gp.InvalidInputError):
        gp.hungarian_min_assignment(((1, 2),))
    with pytest.raises(gp.InvalidInputError):
        gp.hungarian_min_assignment(())


def test_brute_force_size_guard():
    big = [[0] * 10 for _ in range(10)]
    with pytest.raises(gp.BudgetExceededError):
        brute_force_assignment(big)


def test_three_solvers_agree_on_random_matrices():
    rng = random.Random(31)
    for k in range(2, 8):
        for _ in range(30):
            cost = [
                [F(rng.randint(0, 60), rng.randint(1, 8)) for _ in range(k)]
                for _ in range(k)
            ]
            hung, _ = gp.hungarian_min_assignment(cost)
            jv = shortest_path_min_assignment(cost)
            ref = brute_force_assignment(cost)
            assert hung.cost == jv.cost == ref.cost
            assert hung.assignment == jv.assignment == ref.assignment


def test_solver_agrees_with_factorial_search_on_duplicates():
    rng = random.Random(37)
    for _ in range(25):
        k = rng.randint(2, 6)
        # few distinct values force heavy ties
        cost = [[F(rng.choice((0, 1, 2))) for _ in range(k)] for _ in range(k)]
        plain, _ = gp.hungarian_min_assignment(cost)
        ref = brute_force_assignment(cost)
        assert (plain.cost, plain.assignment) == (ref.cost, ref.assignment)


def test_planner_cost_equals_assignment_on_example(ex1, ex1_nng):
    tx = gp.tx_latency_matrix(ex1, ex1_nng)
    coloring = gp.find_coloring(gp.build_extended_graph(ex1_nng), 3)
    cost = gp.color_cost_matrix(coloring, tx)
    file_map, _ = gp.hungarian_min_assignment(cost)
    assert file_map.assignment == (2, 1, 0)
    assert file_map.cost == F(13, 10)


def test_integer_costs_match_factorial_search_on_mixed_denominators():
    rng = random.Random(43)
    for k in range(2, 8):
        for _ in range(20):
            exact = [
                [F(rng.randint(0, 60), rng.choice((1, 3, 4, 7, 10))) for _ in range(k)]
                for _ in range(k)
            ]
            # any common multiple of the denominators is a valid scale
            scale = lcm(*(x.denominator for row in exact for x in row)) * rng.randint(1, 4)
            cost = gp.CostMatrix(
                scaled=tuple(tuple(int(x * scale) for x in row) for row in exact),
                scale=scale,
            )
            assert cost.values == tuple(map(tuple, exact))
            fast, trace = gp.hungarian_min_assignment(cost, with_trace=True)
            ref = brute_force_assignment(cost)
            assert type(fast.cost) is F
            assert (fast.cost, fast.assignment) == (ref.cost, ref.assignment)
            # the plain nested form is rescaled on its own and agrees,
            # trace included
            plain, plain_trace = gp.hungarian_min_assignment(exact, with_trace=True)
            assert plain == fast
            assert plain_trace.to_dict() == trace.to_dict()
