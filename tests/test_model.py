"""Network model: validation, the capacity reduction, file round trips."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

import geoplan as gp
from conftest import random_spec


def kinds(result):
    return [v.kind for v in result.violations]


def test_example_instance_validates(ex1):
    result = gp.validate_spec(ex1)
    assert result.ok
    # tau(A,C)=9 > tau(A,D)+tau(D,C)=7: a deliberate non-metric distance
    assert kinds(result) == ["triangle"]
    assert result.warnings[0].witness == (0, 3, 2)


def test_strict_mode_escalates_triangle(ex1):
    result = gp.validate_spec(ex1, strict=True)
    assert not result.ok
    with pytest.raises(gp.InvalidSpecError):
        gp.require_valid(ex1, strict=True)


def test_require_valid_carries_result():
    dupe = gp.make_spec(("X", "X"), ((0, 1), (1, 0)), ((1, 0), (0, 0)), 2)
    try:
        gp.require_valid(dupe)
    except gp.InvalidSpecError as exc:
        assert exc.result is not None
        assert "duplicate-id" in kinds(exc.result)
    else:
        pytest.fail("expected InvalidSpecError")


def test_validation_and_expansion_are_computed_once_per_spec(ex1, monkeypatch):
    calls = []
    real = gp.model._structure_checks

    def counted(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(gp.model, "_structure_checks", counted)
    spec = gp.make_spec(ex1.node_ids, ex1.rtt, ex1.demands, 3, capacities=(2, 1, 1, 1))
    assert gp.require_valid(spec) is gp.require_valid(spec)
    assert calls == [spec]
    # strict runs afresh: its triangle breach is an error
    with pytest.raises(gp.InvalidSpecError):
        gp.require_valid(spec, strict=True)
    assert calls == [spec, spec]
    assert gp.expand_multifile(spec) is gp.expand_multifile(spec)


def test_asymmetric_rtt_rejected():
    spec = gp.make_spec(("X", "Y"), ((0, 1), (2, 0)), ((Fraction(1, 2), 0), (0, Fraction(1, 2))), 2)
    assert "rtt-asymmetric" in kinds(gp.validate_spec(spec))


def test_nonzero_diagonal_rejected():
    spec = gp.make_spec(("X", "Y"), ((1, 1), (1, 0)), ((Fraction(1, 2), 0), (0, Fraction(1, 2))), 2)
    assert "rtt-diagonal" in kinds(gp.validate_spec(spec))


def test_negative_entries_rejected():
    spec = gp.make_spec(("X", "Y"), ((0, -1), (-1, 0)), ((Fraction(3, 2), 0), (0, Fraction(-1, 2))), 2)
    result = gp.validate_spec(spec)
    assert "rtt-negative" in kinds(result)
    assert "demand-negative" in kinds(result)


def test_demand_sum_tolerance():
    off = Fraction(1, 2) + Fraction(1, 10**10)
    spec = gp.make_spec(("X", "Y"), ((0, 1), (1, 0)), ((off, 0), (0, Fraction(1, 2))), 2)
    assert gp.validate_spec(spec).ok

    way_off = gp.make_spec(("X", "Y"), ((0, 1), (1, 0)), ((1, 0), (0, 1)), 2)
    assert "demand-sum" in kinds(gp.validate_spec(way_off))


def test_capacity_checks():
    half = Fraction(1, 2)
    spec = gp.make_spec(("X", "Y"), ((0, 1), (1, 0)), ((half, 0), (0, half)), 2, capacities=(0, 1))
    assert "capacity" in kinds(gp.validate_spec(spec))
    # 2 nodes x 1 slot cannot hold 3 files
    spec = gp.make_spec(("X", "Y"), ((0, 1), (1, 0)),
                        ((half, 0, 0), (0, half, 0)), 3)
    assert "capacity" in kinds(gp.validate_spec(spec))


def test_shape_checks():
    half = Fraction(1, 2)
    spec = gp.make_spec(("X", "Y"), ((0, 1, 2), (1, 0, 3)), ((half,), (half,)), 1)
    result = gp.validate_spec(spec)
    assert "rtt-shape" in kinds(result)



def test_counts_must_be_integral():
    half = Fraction(1, 2)
    rtt = ((0, 1), (1, 0))
    demands = ((half, 0), (0, half))
    spec = gp.make_spec(("X", "Y"), rtt, demands, Fraction(2), capacities=(2.0, Fraction(1)))
    assert spec.file_count == 2 and spec.capacities == (2, 1)
    assert all(type(c) is int for c in (spec.file_count, *spec.capacities))
    for files, caps in [(Fraction(5, 2), None), (True, None), (None, None),
                        (2, (Fraction(3, 2), 1)), (2, (True, 1)), (2, (1.5, 1))]:
        with pytest.raises(gp.InvalidInputError, match="must be an integer"):
            gp.make_spec(("X", "Y"), rtt, demands, files, capacities=caps)


# --- the exact integer RTT view -----------------------------------------


def test_rtt_scaled_is_cached_and_exact():
    third, close = "2/6", Fraction(333, 1000)
    spec = gp.make_spec(("X", "Y", "Z"), ((0, third, close), (third, 0, 1.5), (close, 1.5, 0)),
                        ((Fraction(1, 3),), (Fraction(1, 3),), (Fraction(1, 3),)), 1)
    assert spec.rtt_scale == 3000
    assert spec.rtt_scaled == ((0, 1000, 999), (1000, 0, 4500), (999, 4500, 0))
    assert spec.rtt_scaled is spec.rtt_scaled
    cells = [(u, v) for u in range(3) for v in range(3)]
    for a in cells:
        for b in cells:
            x, y = spec.rtt[a[0]][a[1]], spec.rtt[b[0]][b[1]]
            sx, sy = spec.rtt_scaled[a[0]][a[1]], spec.rtt_scaled[b[0]][b[1]]
            assert (x < y, x == y) == (sx < sy, sx == sy)


def reference_rtt_violations(spec, strict):
    """The RTT checks of validate_spec, written out on Fractions."""
    ids, rtt, n = spec.node_ids, spec.rtt, spec.node_count
    out = []
    for u in range(n):
        if rtt[u][u] != 0:
            out.append(gp.Violation("rtt-diagonal", f"rtt from {ids[u]} to itself must be 0",
                                    "error", (u,)))
        for v in range(u + 1, n):
            if rtt[u][v] < 0:
                out.append(gp.Violation("rtt-negative",
                                        f"negative rtt between {ids[u]} and {ids[v]}",
                                        "error", (u, v)))
            if rtt[u][v] != rtt[v][u]:
                out.append(gp.Violation("rtt-asymmetric",
                                        f"asymmetric rtt between {ids[u]} and {ids[v]}",
                                        "error", (u, v)))
    for u in range(n):
        for v in range(u + 1, n):
            for w in range(n):
                if w not in (u, v) and rtt[u][v] > rtt[u][w] + rtt[w][v]:
                    out.append(gp.Violation(
                        "triangle",
                        f"triangle inequality breach: rtt({ids[u]},{ids[v]}) > "
                        f"rtt({ids[u]},{ids[w]}) + rtt({ids[w]},{ids[v]})",
                        "error" if strict else "warning",
                        (u, w, v),
                    ))
    return tuple(out)


def test_triangle_breach_by_one_scaled_unit():
    # scale 210: X-Z = 210 units against a detour of 70 + 139 = 209 units;
    # X-W ties its detour through Y exactly (70 + 140) and is no breach
    rtt = ((0, Fraction(1, 3), 1, 1), (Fraction(1, 3), 0, Fraction(139, 210), Fraction(2, 3)),
           (1, Fraction(139, 210), 0, 1), (1, Fraction(2, 3), 1, 0))
    spec = gp.make_spec("XYZW", rtt, [[Fraction(1, 4)]] * 4, 1)
    assert spec.rtt_scale == 210
    assert [v.witness for v in gp.validate_spec(spec).violations] == [(0, 1, 2)]


def test_triangle_scan_matches_fraction_definition():
    rng = random.Random(20261018)

    def cell():
        return Fraction(rng.randint(-3, 40), rng.choice((1, 3, 7, 10)))

    breaches = 0
    for _ in range(300):
        n = rng.randint(1, 9)
        rtt = [[cell() for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.7:
            for u in range(n):
                for v in range(u):
                    rtt[u][v] = rtt[v][u]
                if rng.random() < 0.8:
                    rtt[u][u] = Fraction(0)
        if rng.random() < 0.3:
            u, v = rng.randrange(n), rng.randrange(n)
            rtt[u][v] = -abs(rtt[u][v])
        spec = gp.make_spec([f"n{i}" for i in range(n)], rtt,
                            [[Fraction(1, n)] for _ in range(n)], 1)
        for strict in (False, True):
            got = gp.validate_spec(spec, strict=strict).violations
            assert got == reference_rtt_violations(spec, strict)
        breaches += sum(v.kind == "triangle" for v in got)
    assert breaches > 1000


# --- placements ---------------------------------------------------------


def test_placement_helpers():
    plc = gp.Placement.from_files([2, 1, 2, 0])
    assert plc.is_unit
    assert plc.as_single_files() == (2, 1, 2, 0)
    assert plc.holders(2) == (0, 2)
    assert plc.covered_files() == frozenset({0, 1, 2})

    multi = gp.Placement(files_by_node=((0, 2), (1,)))
    assert not multi.is_unit
    with pytest.raises(gp.InvalidInputError):
        multi.single(0)


# --- capacity expansion -------------------------------------------------


def test_expand_splits_demands_evenly():
    spec = gp.make_spec(
        ("V", "W"),
        ((0, 3), (3, 0)),
        ((Fraction("0.2"), Fraction("0.1"), Fraction("0.1")), (Fraction("0.3"), Fraction("0.2"), Fraction("0.1"))),
        3,
        capacities=(2, 1),
    )
    expanded = gp.expand_multifile(spec)
    work = expanded.network
    assert work.node_ids == ("V#1", "V#2", "W")
    assert work.demands[0] == work.demands[1] == (
        Fraction(1, 10), Fraction(1, 20), Fraction(1, 20),
    )
    assert work.rtt[0][1] == 0
    assert work.rtt[0][2] == 3
    assert expanded.groups == ((0, 1), (2,))
    assert expanded.provenance == ((0, 1), (0, 2), (1, 1))


def test_expand_of_unit_spec_is_identity(ex1):
    expanded = gp.expand_multifile(ex1)
    assert expanded.is_identity
    assert expanded.network == ex1
    # the spec itself, so its cached integer scales are reused
    assert expanded.network is ex1
    assert expanded.provenance == ((0, 1), (1, 1), (2, 1), (3, 1))
    assert expanded.groups == ((0,), (1,), (2,), (3,))


def reference_expansion(spec):
    """Unit-slot network written out from the definition."""
    ids, rtt, demands, owner = [], [], [], []
    for v, cap in enumerate(spec.capacities):
        for slot in range(1, cap + 1):
            ids.append(spec.node_ids[v] if cap == 1 else f"{spec.node_ids[v]}#{slot}")
            owner.append(v)
            demands.append([p / cap for p in spec.demands[v]])
    for a in owner:
        rtt.append([0 if a == b else spec.rtt[a][b] for b in owner])
    return gp.make_spec(ids, rtt, demands, spec.file_count)


def test_multi_capacity_expansion_matches_definition():
    rng = random.Random(67)
    checked = 0
    for _ in range(30):
        spec = random_spec(rng, max_nodes=5, max_files=3, multi=True)
        if spec.is_unit_capacity:
            continue
        work = gp.expand_multifile(spec).network
        assert work is not spec
        assert work == reference_expansion(spec)
        checked += 1
    assert checked >= 10


def test_demand_and_cost_scales_are_cached_and_exact():
    spec = gp.make_spec(
        ("X", "Y"),
        ((0, "1/3"), ("1/3", 0)),
        (("1/4", "1/6"), ("1/12", "1/2")),
        2,
    )
    assert spec.demand_scale == 12
    assert spec.demands_scaled == ((3, 2), (1, 6))
    assert spec.demands_scaled is spec.demands_scaled
    assert spec.cost_scale == spec.rtt_scale * spec.demand_scale == 36
    for row, scaled in zip(spec.demands, spec.demands_scaled):
        assert tuple(Fraction(x, spec.demand_scale) for x in scaled) == row
    # rtt x demand products are integers over cost_scale
    assert spec.rtt_scaled[0][1] * spec.demands_scaled[1][0] == spec.rtt[0][1] * spec.demands[1][0] * 36


def test_expand_example_with_double_capacity(ex1):
    spec = gp.make_spec(ex1.node_ids, ex1.rtt, ex1.demands, 3, capacities=(2, 1, 1, 1))
    work = gp.expand_multifile(spec).network
    assert work.node_count == 5
    assert sum(p for row in work.demands for p in row) == 1
    assert work.rtt[0][1] == 0  # the two A slots


def test_expand_id_collision_rejected():
    half = Fraction(1, 2)
    spec = gp.make_spec(("X", "X#1"), ((0, 1), (1, 0)), ((half, 0), (0, half)), 2, capacities=(2, 1))
    with pytest.raises(gp.InvalidSpecError):
        gp.expand_multifile(spec)


def test_expand_conserves_demand_mass():
    rng = random.Random(61)
    for _ in range(25):
        spec = random_spec(rng, max_nodes=5, max_files=3, multi=True)
        expanded = gp.expand_multifile(spec)
        for v, group in enumerate(expanded.groups):
            for j in range(spec.file_count):
                got = sum(expanded.network.demands[i][j] for i in group)
                assert got == spec.demands[v][j]


def test_project_placement_collapses_slots():
    half = Fraction(1, 2)
    spec = gp.make_spec(("X", "Y"), ((0, 1), (1, 0)), ((half, 0), (0, half)), 2, capacities=(2, 1))
    expanded = gp.expand_multifile(spec)
    projected = expanded.project_placement(gp.Placement.from_files([1, 0, 0]))
    assert projected.files_by_node == ((0, 1), (0,))


# --- files --------------------------------------------------------------


def test_spec_json_round_trip(tmp_path, ex1):
    path = tmp_path / "net.json"
    gp.save_spec(ex1, str(path))
    assert gp.load_spec(str(path)) == ex1


def test_load_spec_reads_decimals_exactly(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({
        "files": 2,
        "nodes": [
            {"id": "X", "demands": [0.3, 0.2]},
            {"id": "Y", "demands": [0.4, 0.1]},
        ],
        "rtt": [[0, 1.5], [1.5, 0]],
    }))
    spec = gp.load_spec(str(path))
    assert spec.demands[0][0] == Fraction(3, 10)
    assert spec.rtt[0][1] == Fraction(3, 2)
    assert spec.capacities == (1, 1)


def test_csv_overrides(tmp_path, ex1):
    spec_path = tmp_path / "net.json"
    gp.save_spec(ex1, str(spec_path))
    rtt_path = tmp_path / "rtt.csv"
    rtt_path.write_text("0,1,1,1\n1,0,1,1\n1,1,0,1\n1,1,1,0\n")
    spec = gp.load_spec(str(spec_path), rtt_csv=str(rtt_path))
    assert spec.rtt[0][2] == 1
    assert spec.demands == ex1.demands


def test_malformed_spec_file(tmp_path):
    path = tmp_path / "net.json"
    path.write_text('{"nodes": []}')
    with pytest.raises(gp.InvalidInputError):
        gp.load_spec(str(path))
