"""Latency reports for plain and coded placements."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import geoplan as gp
from geoplan.gf import field
from conftest import random_admissible_pair, random_full_placement, random_spec, tie_heavy_spec
from crosscheck import code_is_admissible, matrix_rank, receive_side_avg
from geoplan.rational import frac_decimal, frac_str

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


def wc_bounds(spec):
    """The worst-case floors as Fractions: ``wc_floors`` over the RTT scale."""
    return tuple(F(t, spec.rtt_scale) for t in spec.wc_floors)


def test_wc_lower_bounds_example(ex1):
    assert wc_bounds(ex1) == (2, 2, 7, 2)


def test_wc_lower_bounds_with_capacities():
    spec = gp.make_spec(
        ("x", "y", "z"),
        ((0, 3, 1), (3, 0, 2), (1, 2, 0)),
        [[F(1, 9)] * 3 for _ in range(3)],
        3,
        capacities=(2, 1, 1),
    )
    # x needs one remote file (z at 1); y needs two (z, then x at 3)
    assert wc_bounds(spec) == (1, 3, 1)


def test_wc_lower_bounds_need_enough_room():
    spec = gp.make_spec(
        ("x", "y"),
        ((0, 1), (1, 0)),
        [[F(1, 6)] * 3 for _ in range(2)],
        3,
    )
    with pytest.raises(gp.InvalidSpecError):
        spec.wc_floors


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


@pytest.mark.parametrize(
    "placement",
    [(1.5, 0, 2, 1), (True, 0, 2, 1), gp.Placement(((1.0,), (0,), (2,), (1,)))],
    ids=["float", "bool", "float-in-placement"],
)
def test_eval_uncoded_refuses_a_file_index_that_is_not_an_int(ex1, placement):
    with pytest.raises(gp.InvalidInputError, match="is not an integer"):
        gp.eval_uncoded(ex1, placement)


def _rendered_views(report):
    """``report.to_dict()`` built from its Fraction views."""
    return {
        "schema": "latency-report/1",
        "nodes": list(report.node_ids),
        "file_count": report.file_count,
        "latencies": [[frac_str(x) for x in row] for row in report.latencies],
        "worst_case": [frac_str(x) for x in report.worst_case],
        "worst_case_bounds": [frac_str(x) for x in report.wc_bounds],
        "average": frac_str(report.average),
        "average_decimal": frac_decimal(report.average),
    }


def test_integer_report_matches_its_fraction_views():
    rng = random.Random(2102)
    reports = []
    for trial in range(40):
        if trial % 2:
            spec = tie_heavy_spec(rng, lambda net: True, multi=trial % 4 == 1)
        else:
            spec = random_spec(rng, multi=trial % 4 == 2)
        reports.append((spec, gp.eval_uncoded(spec, random_full_placement(rng, spec))))
        planned = gp.plan(spec)
        if isinstance(planned, gp.PlanReport):
            reports.append((spec, planned.latency))
        work = gp.expand_multifile(spec).network
        code = gp.mds_code(work.node_count, work.file_count)
        reports.append((work, gp.eval_linear_code(work, code)[0]))
    for spec, report in reports:
        assert report.scale == spec.rtt_scale
        assert report.floors == spec.wc_floors
        assert report.wc_bounds == wc_bounds(spec)
        assert report.latencies == tuple(
            tuple(F(t, spec.rtt_scale) for t in row) for row in report.fetch
        )
        assert report.worst_case == tuple(map(max, report.latencies))
        assert report.meets_bounds() == (report.worst_case == report.wc_bounds)
        assert report.to_dict() == _rendered_views(report)
    outcomes = [report.meets_bounds() for _, report in reports]
    assert True in outcomes and False in outcomes


def test_report_text_is_each_latency_over_the_scale():
    """Random integer reports: every rendered latency, worst case and
    floor is ``frac_str(Fraction(t, scale))``, zero and the multiples of
    the scale (bare integers) included."""
    rng = random.Random(2903)
    seen = {"zero": 0, "whole": 0, "ratio": 0}
    for _ in range(300):
        scale = rng.choice((1, 2, 6, 10, 12, 35, rng.randint(1, 10**6)))
        n, k = rng.randint(1, 6), rng.randint(1, 4)

        def latency():
            kind = rng.randrange(3)
            return (0, scale * rng.randint(1, 9), rng.randint(1, 10 * scale))[kind]

        fetch = tuple(tuple(latency() for _ in range(k)) for _ in range(n))
        floors = tuple(latency() for _ in range(n))
        report = gp.LatencyReport(
            node_ids=tuple(f"x{v}" for v in range(n)),
            file_count=k,
            fetch=fetch,
            floors=floors,
            scale=scale,
            average=F(rng.randint(0, 99), scale),
        )
        text = report.to_dict()

        def want(t):
            return frac_str(F(t, scale))

        assert text["latencies"] == [[want(t) for t in row] for row in fetch]
        assert text["worst_case"] == [want(max(row)) for row in fetch]
        assert text["worst_case_bounds"] == list(map(want, floors))
        for t in (*floors, *(t for row in fetch for t in row)):
            seen["zero" if t == 0 else "whole" if t % scale == 0 else "ratio"] += 1
    assert min(seen.values()) >= 500, seen


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
    assert code_is_admissible(ex1, code, ex1_nng)
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
    assert not code_is_admissible(ex1, code, ex1_nng)


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


@pytest.mark.parametrize("entry", [4, 7, -1, -4])
def test_binary_field_entries_outside_the_field_are_refused(entry):
    spec = micro_spec()
    code = gp.LinearCode(4, ((1, 0), (0, entry), (1, 1)))
    with pytest.raises(gp.InvalidInputError, match=rf"^{entry} is not an element of GF\(2\^2\)$"):
        gp.eval_linear_code(spec, code)


def test_the_first_entry_outside_the_field_in_file_order_is_named():
    code = gp.LinearCode(8, ((1, 9), (8, 1), (1, 1)))
    with pytest.raises(gp.InvalidInputError, match=r"^9 is not an element of GF\(2\^3\)$"):
        gp.eval_linear_code(micro_spec(), code)


@pytest.mark.parametrize("shift", [-2, -1, 1, 3])
def test_prime_field_entries_are_read_as_their_residues(ex1, ex1_nng, shift):
    code = gp.mds_code(4, 3, field_order=7)
    rng = random.Random(shift)
    moved = gp.LinearCode(7, tuple(
        tuple(x + 7 * shift * rng.randint(0, 1) for x in row) for row in code.generator
    ))
    assert moved.generator != code.generator
    assert any(x < 0 or x >= 7 for row in moved.generator for x in row)
    report, plan = gp.eval_linear_code(ex1, code)
    again, replan = gp.eval_linear_code(ex1, moved)
    assert again.to_dict() == report.to_dict()
    assert replan.to_dict() == plan.to_dict()
    assert code_is_admissible(ex1, moved, ex1_nng)


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
        assert code_is_admissible(spec, code, nng)
        report, _ = gp.eval_linear_code(spec, code)
        assert report.meets_bounds()


def _decoding_radii(f, generator, k, dist):
    """Latency of one node for every file, straight from the definition:
    the least, over node sets S whose columns span e_j, of the farthest
    distance to a member of S.  Node s's column is ``generator[s]``."""
    n = len(generator)
    radii = [None] * k
    for mask in range(1, 1 << n):
        members = [s for s in range(n) if mask >> s & 1]
        sub = [generator[s] for s in members]
        rank = matrix_rank(f, sub, k)
        far = max(dist[s] for s in members)
        for j in range(k):
            aug = sub + [tuple(int(i == j) for i in range(k))]
            if matrix_rank(f, aug, k) == rank and (radii[j] is None or far < radii[j]):
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
        if matrix_rank(f, generator, k) < k:
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
            assert list(report.latencies[v]) == _decoding_radii(f, generator, k, rtt[v])
            for j, x in enumerate(plan.vectors[v]):
                for i in range(k):
                    total = f.zero
                    for s in range(n):
                        total = f.add(total, f.mul(generator[s][i], x[s]))
                    assert total == (f.one if i == j else f.zero)
                assert max(rtt[v][s] for s in range(n) if x[s]) == report.latencies[v][j]
        checked += 1
