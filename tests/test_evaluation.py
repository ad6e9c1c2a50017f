"""Latency reports for plain and coded placements."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import geoplan as gp
from geoplan.gf import field, matrix_rank
from conftest import random_admissible_pair, random_spec
from crosscheck import receive_side_avg

F = Fraction

BEST = (2, 1, 2, 0)


def micro_spec():
    # three nodes, two files; small enough to enumerate every decoding
    return gp.make_spec(
        ("n1", "n2", "n3"),
        ((0, 4, 1), (4, 0, 2), (1, 2, 0)),
        [[F(1, 6)] * 2 for _ in range(3)],
        2,
    )


def test_wc_lower_bounds_example(ex1):
    assert gp.wc_lower_bounds(ex1) == (2, 2, 7, 2)


def test_wc_lower_bounds_with_capacities():
    spec = gp.make_spec(
        ("x", "y", "z"),
        ((0, 3, 1), (3, 0, 2), (1, 2, 0)),
        [[F(1, 9)] * 3 for _ in range(3)],
        3,
        capacities=(2, 1, 1),
    )
    # x needs one remote file (z at 1); y needs two (z, then x at 3)
    assert gp.wc_lower_bounds(spec) == (1, 3, 1)


def test_wc_lower_bounds_need_enough_room():
    spec = gp.make_spec(
        ("x", "y"),
        ((0, 1), (1, 0)),
        [[F(1, 6)] * 3 for _ in range(2)],
        3,
    )
    with pytest.raises(gp.InvalidSpecError):
        gp.wc_lower_bounds(spec)


def test_eval_uncoded_example(ex1):
    report = gp.eval_uncoded(ex1, BEST)
    assert report.latencies == (
        (2, 2, 0),
        (2, 0, 2),
        (5, 7, 0),
        (0, 2, 2),
    )
    assert report.worst_case == (2, 2, 7, 2)
    assert report.wc_bounds == (2, 2, 7, 2)
    assert report.meets_bounds()
    assert report.average == F(13, 10)


def test_average_is_demand_weighted_sum(ex1):
    report = gp.eval_uncoded(ex1, BEST)
    total = sum(
        ex1.demands[v][j] * report.latencies[v][j]
        for v in range(4)
        for j in range(3)
    )
    assert report.average == total


def test_report_dict_schema(ex1):
    data = gp.eval_uncoded(ex1, BEST).to_dict()
    assert data["schema"] == "latency-report/1"
    assert data["average"] == "13/10"
    assert data["average_decimal"] == "1.300000"
    assert data["nodes"] == ["A", "B", "C", "D"]
    assert data["worst_case"] == ["2", "2", "7", "2"]
    assert data["worst_case_bounds"] == data["worst_case"]


def test_eval_uncoded_accepts_placement_object(ex1):
    placement = gp.Placement.from_files((2, 1, 2, 0))
    assert gp.eval_uncoded(ex1, placement).average == F(13, 10)


def test_eval_uncoded_requires_coverage(ex1):
    with pytest.raises(gp.InvalidInputError, match="no node holds file 0"):
        gp.eval_uncoded(ex1, (2, 1, 2, 1))


def test_eval_uncoded_rejects_bad_shape(ex1):
    with pytest.raises(gp.InvalidInputError):
        gp.eval_uncoded(ex1, (2, 1, 2))
    with pytest.raises(gp.InvalidInputError):
        gp.eval_uncoded(ex1, (2, 1, 2, 3))


def test_worst_case_never_beats_bounds():
    rng = random.Random(51)
    for _ in range(30):
        spec = random_spec(rng)
        n, k = spec.node_count, spec.file_count
        files = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
        rng.shuffle(files)
        report = gp.eval_uncoded(spec, files)
        for got, floor in zip(report.worst_case, report.wc_bounds):
            assert got >= floor


def test_receive_side_matches_direct_average(ex1, ex1_nng):
    assert receive_side_avg(ex1, ex1_nng, BEST) == F(13, 10)


def test_receive_side_rejects_inadmissible(ex1, ex1_nng):
    with pytest.raises(gp.InvalidInputError, match="not admissible"):
        receive_side_avg(ex1, ex1_nng, (1, 1, 2, 0))


def test_two_average_forms_agree_on_random_instances():
    rng = random.Random(53)
    for _ in range(40):
        spec, nng, placement = random_admissible_pair(rng)
        direct = gp.eval_uncoded(spec, placement)
        assert direct.meets_bounds()
        assert receive_side_avg(spec, nng, placement) == direct.average


def test_micro_code_recovery_values():
    spec = micro_spec()
    code = gp.LinearCode(2, ((1, 0), (0, 1), (1, 1)))
    report, plan = gp.eval_linear_code(spec, code)
    assert report.latencies == ((0, 1), (2, 0), (1, 1))
    assert report.worst_case == (1, 2, 1)
    assert report.wc_bounds == (1, 2, 1)
    assert report.meets_bounds()
    assert report.average == F(5, 6)
    # the mixed symbol at n3 is what n1 reads for file 1
    vec = plan.vectors[0][1]
    assert [s for s, c in enumerate(vec) if c] == [0, 2]


def test_selection_code_matches_plain_eval(ex1):
    # rows that each pick out one file reduce to an ordinary placement
    rows = {0: (0, 0, 1), 1: (0, 1, 0), 2: (0, 0, 1), 3: (1, 0, 0)}
    code = gp.LinearCode(2, tuple(rows[v] for v in range(4)))
    report, _ = gp.eval_linear_code(ex1, code)
    plain = gp.eval_uncoded(ex1, BEST)
    assert report.latencies == plain.latencies
    assert report.average == plain.average


def test_recovery_plan_dict(ex1):
    code = gp.mds_code(4, 3)
    _, plan = gp.eval_linear_code(ex1, code)
    data = plan.to_dict()
    assert data["schema"] == "recovery-plan/1"
    assert len(data["vectors"]) == 4
    assert len(data["vectors"][0]) == 3


def test_mds_code_defaults(ex1, ex1_nng):
    code = gp.mds_code(4, 3)
    assert code.field_order == 7
    assert gp.code_is_admissible(ex1, code, ex1_nng)
    report, _ = gp.eval_linear_code(ex1, code)
    assert report.worst_case == report.wc_bounds == (2, 2, 7, 2)


def test_mds_code_field_choices():
    assert gp.mds_code(4, 3, field_order=8).field_order == 8
    assert gp.mds_code(3, 2, field_order=5).field_order == 5
    assert gp.mds_code(13, 3).field_order == 16
    with pytest.raises(gp.InvalidInputError, match="too small"):
        gp.mds_code(4, 3, field_order=5)
    with pytest.raises(gp.InvalidInputError):
        gp.mds_code(2, 3)


def test_code_admissibility_detects_rank_gaps(ex1, ex1_nng):
    # storing file 0 at both A and B starves closed_in(D) = {A, B, D}
    rows = {0: (1, 0, 0), 1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 1)}
    code = gp.LinearCode(2, tuple(rows[v] for v in range(4)))
    assert not gp.code_is_admissible(ex1, code, ex1_nng)


def test_eval_code_rejects_rank_deficiency():
    spec = micro_spec()
    code = gp.LinearCode(2, ((1, 0), (1, 0), (1, 0)))
    with pytest.raises(gp.InvalidInputError, match="rank deficient"):
        gp.eval_linear_code(spec, code)


def test_eval_code_shape_checks(ex1):
    with pytest.raises(gp.InvalidInputError, match="rows"):
        gp.eval_linear_code(ex1, gp.LinearCode(7, ((1, 0, 0),) * 3))
    with pytest.raises(gp.InvalidInputError, match="entries"):
        gp.eval_linear_code(ex1, gp.LinearCode(7, ((1, 0),) * 4))


def test_code_round_trip():
    code = gp.mds_code(4, 3)
    again = gp.LinearCode.from_dict(code.to_dict())
    assert again == code
    with pytest.raises(gp.InvalidInputError):
        gp.LinearCode.from_dict({"generator": [[1]]})


def test_mds_meets_bounds_on_random_instances():
    rng = random.Random(59)
    for _ in range(10):
        spec = random_spec(rng, max_nodes=5, max_files=3)
        nng = gp.build_nng(spec)
        code = gp.mds_code(spec.node_count, spec.file_count)
        assert gp.code_is_admissible(spec, code, nng)
        report, _ = gp.eval_linear_code(spec, code)
        assert report.meets_bounds()


def _decoding_radii(f, columns, dist):
    """Latency of one node for every file, straight from the definition:
    the least, over node sets S whose columns span e_j, of the farthest
    distance to a member of S."""
    k, n = len(columns), len(columns[0])
    radii = [None] * k
    for mask in range(1, 1 << n):
        members = [s for s in range(n) if mask >> s & 1]
        sub = [[row[s] for s in members] for row in columns]
        rank = matrix_rank(f, sub)
        far = max(dist[s] for s in members)
        for j in range(k):
            aug = [row + [int(i == j)] for i, row in enumerate(sub)]
            if matrix_rank(f, aug) == rank and (radii[j] is None or far < radii[j]):
                radii[j] = far
    return radii


def test_code_latency_matches_decoding_definition():
    rng = random.Random(61)
    checked = 0
    while checked < 40:
        q = rng.choice((2, 3, 4, 5, 7, 8))
        n = rng.randint(2, 7)
        k = rng.randint(1, min(n, 4))
        f = field(q)
        generator = tuple(tuple(rng.randrange(q) for _ in range(k)) for _ in range(n))
        columns = [[generator[s][j] for s in range(n)] for j in range(k)]
        if matrix_rank(f, columns) < k:
            continue
        # few distinct distances, so ties in the column order are common
        rtt = [[0] * n for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                rtt[u][v] = rtt[v][u] = rng.randint(1, 3)
        spec = gp.make_spec(
            [f"n{i}" for i in range(n)], rtt, [[F(1, n * k)] * k for _ in range(n)], k
        )
        report, plan = gp.eval_linear_code(spec, gp.LinearCode(q, generator))
        for v in range(n):
            assert list(report.latencies[v]) == _decoding_radii(f, columns, rtt[v])
            for j, x in enumerate(plan.vectors[v]):
                for i in range(k):
                    total = f.zero
                    for s in range(n):
                        total = f.add(total, f.mul(generator[s][i], x[s]))
                    assert total == (f.one if i == j else f.zero)
                assert max(rtt[v][s] for s in range(n) if x[s]) == report.latencies[v][j]
        checked += 1
