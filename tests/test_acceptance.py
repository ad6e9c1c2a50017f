"""Acceptance criteria, one test per criterion.

Each test is reported as a "[criterion NN] title: PASS/FAIL" line in
the terminal summary (see conftest).  Expected values are exact
rationals frozen from independent recomputation; comparisons use
equality, not tolerances, unless a criterion explicitly bounds time.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import geoplan as gp
from conftest import random_admissible_pair, random_spec
from crosscheck import brute_force_assignment, receive_side_avg

F = Fraction

# class costs for the worked example, rows in class order {A,C}, {B}, {D}
GOLDEN = (
    (F(1, 10), F(9, 20), F(9, 20)),
    (F(23, 40), F(9, 40), F(29, 20)),
    (F(23, 40), F(23, 40), F(11, 10)),
)


def test_criterion_01_golden_assignment_fast():
    gp.hungarian_min_assignment(GOLDEN)  # warm-up
    best_time = None
    for _ in range(5):
        start = time.perf_counter()
        file_map, _ = gp.hungarian_min_assignment(GOLDEN)
        elapsed = time.perf_counter() - start
        if best_time is None or elapsed < best_time:
            best_time = elapsed
    # first class takes file 2, second file 1, third file 0
    assert file_map.assignment == (2, 1, 0)
    assert file_map.cost == F(5, 4)
    assert best_time < 0.001


def test_criterion_02_reduction_trace():
    file_map, trace = gp.hungarian_min_assignment(GOLDEN, with_trace=True)
    assert file_map.cost == F(5, 4)
    first = trace.steps[0]
    assert first.kind == "row_reduce"
    assert first.matrix == (
        (F(0), F(7, 20), F(7, 20)),
        (F(7, 20), F(0), F(49, 40)),
        (F(0), F(0), F(21, 40)),
    )
    # one cover round; its uncovered minimum is the only adjustment
    assert trace.adjustments() == (F(7, 20),)
    assert trace.final_matching_size() == 3


def test_criterion_03_transmit_cost_rows(ex1, ex1_nng):
    tx = gp.tx_latency_matrix(ex1, ex1_nng)
    assert tx.values[0] == (F(1, 10), F(9, 20), F(9, 20))
    assert tx.values[0][2] == F(9, 20)
    assert tx.values[2] == (0, 0, 0)
    assert tx.values[3] == (F(23, 40), F(23, 40), F(11, 10))
    # row B from first principles: out(B) = {A, C, D} at distances
    # 2, 7, 2.  A circulated value (5/8, 5/8, 3/2) needs tau(B,C) = 5
    # and different demands, both contradicted by the fixture, so the
    # recomputed row is authoritative.
    expected_b = tuple(
        2 * ex1.demands[0][j] + 7 * ex1.demands[2][j] + 2 * ex1.demands[3][j]
        for j in range(3)
    )
    assert expected_b == (F(5, 8), F(11, 40), F(37, 20))
    assert tx.values[1] == expected_b


def test_criterion_04_planner_oracle_equivalence():
    rng = random.Random(97)
    start = time.perf_counter()
    solved = 0
    for _ in range(200):
        spec = random_spec(rng, max_nodes=7, max_files=4)
        report = gp.plan(spec)
        oracle = gp.brute_force_placement(spec)
        if isinstance(report, gp.InfeasiblePlan):
            assert oracle.best_value is None
        else:
            assert report.value == oracle.best_value
            solved += 1
    elapsed = time.perf_counter() - start
    assert solved >= 100
    assert elapsed < 60


def test_criterion_05_assignment_equals_factorial_search():
    rng = random.Random(101)
    for k in range(2, 8):
        for _ in range(100):
            cost = [
                [F(rng.randint(0, 99), rng.choice((1, 2, 4, 5))) for _ in range(k)]
                for _ in range(k)
            ]
            fast, _ = gp.hungarian_min_assignment(cost)
            slow = brute_force_assignment(cost)
            assert fast.cost == slow.cost


def test_criterion_06_worst_case_floors():
    rng = random.Random(103)
    planned = 0
    for _ in range(40):
        spec = random_spec(rng, max_nodes=6, max_files=4)
        n, k = spec.node_count, spec.file_count
        nng = gp.build_nng(spec)
        report = gp.plan(spec)
        if not isinstance(report, gp.InfeasiblePlan):
            planned += 1
            latency = gp.eval_uncoded(spec, report.placement)
            assert latency.worst_case == latency.wc_bounds
        for _ in range(5):
            files = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
            rng.shuffle(files)
            latency = gp.eval_uncoded(spec, files)
            admissible = gp.is_admissible(tuple(files), nng)
            for got, floor in zip(latency.worst_case, latency.wc_bounds):
                assert got >= floor
            if admissible:
                assert latency.worst_case == latency.wc_bounds
    assert planned >= 10


def test_criterion_07_three_average_forms_agree():
    rng = random.Random(107)
    for _ in range(100):
        spec, nng, files = random_admissible_pair(rng)
        direct = gp.eval_uncoded(spec, files).average
        receive = receive_side_avg(spec, nng, files)
        tx = gp.tx_latency_matrix(spec, nng)
        transmit = sum(tx.values[s][files[s]] for s in range(spec.node_count))
        assert direct == receive == transmit


def test_criterion_08_expansion_equivalence():
    rng = random.Random(109)
    planned = 0
    for _ in range(50):
        spec = random_spec(rng, multi=True)
        expanded = gp.expand_multifile(spec)
        work = expanded.network
        # demand mass per original (node, file) survives the split
        for v in range(spec.node_count):
            for j in range(spec.file_count):
                share = sum(
                    work.demands[s][j]
                    for s, (orig, _slot) in enumerate(expanded.provenance)
                    if orig == v
                )
                assert share == spec.demands[v][j]
        report = gp.plan(spec)
        if isinstance(report, gp.InfeasiblePlan):
            continue
        planned += 1
        on_expanded = gp.eval_uncoded(work, report.expanded_placement)
        direct = gp.eval_uncoded(spec, report.placement)
        assert on_expanded.average == direct.average == report.value
    assert planned >= 10


def test_criterion_09_code_worst_case_floors():
    rng = random.Random(113)
    for _ in range(20):
        spec = random_spec(rng, max_nodes=6, max_files=3)
        q = spec.node_count + spec.file_count
        while any(q % d == 0 for d in range(2, q)):
            q += 1
        code = gp.mds_code(spec.node_count, spec.file_count, field_order=q)
        report, _ = gp.eval_linear_code(spec, code)
        assert report.worst_case == report.wc_bounds


def test_criterion_10_coded_beats_uncoded(ex1, ex1_nng):
    uncoded = gp.plan(ex1).value
    assert uncoded == F(13, 10)
    best = None
    admissible = 0
    for bits in itertools.product((0, 1), repeat=12):
        rows = tuple(tuple(bits[3 * v: 3 * v + 3]) for v in range(4))
        code = gp.LinearCode(2, rows)
        if not gp.code_is_admissible(ex1, code, ex1_nng):
            continue
        admissible += 1
        report, _ = gp.eval_linear_code(ex1, code)
        if best is None or report.average < best:
            best = report.average
    assert admissible == 672
    assert best == 1
    assert best < uncoded
