"""Network model: validation, the capacity reduction, file round trips."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

import geoplan as gp
from conftest import quote_numbers, random_spec
from geoplan.rational import MAX_DIGITS, to_ratio
from test_fuzz import ODD_VALUES


def _moderate_number(value) -> bool:
    try:
        exact = Fraction(*to_ratio(value))
    except (TypeError, ValueError, gp.BudgetExceededError):
        return False
    return max(exact.numerator.bit_length(), exact.denominator.bit_length()) <= 2048


#: the fuzzer's odd values that read as numbers, strings and non-strings,
#: up to 1e400 in size: with the 1e99999 and 1e-99999 cells every
#: Fraction in a matrix costs a 660,000-bit gcd, over a minute below
CORPUS_NUMBERS = [value for value in ODD_VALUES if _moderate_number(value)]


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

    # the tolerance is inclusive: a total exactly 10^-9 from 1 passes
    for sign in (1, -1):
        edge = Fraction(1, 2) + sign * Fraction(1, 10**9)
        spec = gp.make_spec(("X", "Y"), ((0, 1), (1, 0)), ((edge, 0), (0, Fraction(1, 2))), 2)
        assert gp.validate_spec(spec).ok
        past = Fraction(1, 2) + sign * Fraction(2, 10**9)
        spec = gp.make_spec(("X", "Y"), ((0, 1), (1, 0)), ((past, 0), (0, Fraction(1, 2))), 2)
        (violation,) = gp.validate_spec(spec).errors
        assert violation.kind == "demand-sum"
        total = "500000001/500000000" if sign > 0 else "499999999/500000000"
        assert violation.message == f"demand probabilities sum to {total}, expected 1"


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


def test_boolean_cell_after_an_equal_number_is_refused():
    # a cache keyed by cell value would read True as the 1 parsed before it
    for one in (1, 1.0, Fraction(1)):
        data = {
            "files": 1,
            "nodes": [{"id": "X", "demands": [1]}, {"id": "Y", "demands": [0]}],
            "rtt": [[0, one], [True, 0]],
        }
        with pytest.raises(gp.InvalidInputError, match="booleans"):
            gp.spec_from_dict(data)
        data["rtt"] = [[0, one], [one, 0]]
        data["nodes"][1]["demands"] = [True]
        with pytest.raises(gp.InvalidInputError, match="booleans"):
            gp.spec_from_dict(data)


def test_numbers_past_the_digit_budget_are_refused():
    def parses(value):
        try:
            to_ratio(value)
        except gp.BudgetExceededError:  # a well-formed literal past the budget
            return True
        except (TypeError, ValueError):
            return False
        return True

    def spec_with(rtt=1, demand=Fraction(1, 2), files=2):
        return gp.make_spec(("X", "Y"), ((0, rtt), (rtt, 0)), ((demand, 0), (0, demand)), files)

    for value in ("1e400", 10**40, 10**MAX_DIGITS - 1, f"1/{10**(MAX_DIGITS - 1)}"):
        assert spec_with(value).rtt[0][1] == Fraction(*to_ratio(value))
        assert spec_with(demand=value).demands[0][0] == Fraction(*to_ratio(value))
    assert spec_with(files=10**MAX_DIGITS - 1).file_count == 10**MAX_DIGITS - 1
    # the fuzzer's numbers left out of CORPUS_NUMBERS, and the edges
    left_out = [v for v in ODD_VALUES if parses(v) and v not in CORPUS_NUMBERS]
    assert left_out == ["9e99999", "1e-99999"]
    for value in (*left_out, "1e-4300", 10**MAX_DIGITS, f"1/{10**MAX_DIGITS}"):
        with pytest.raises(gp.BudgetExceededError, match="1000 digits"):
            spec_with(value)
        with pytest.raises(gp.BudgetExceededError, match="1000 digits"):
            spec_with(demand=value)
    # a scale within the budget whose scaled cells are not
    with pytest.raises(gp.BudgetExceededError):
        gp.make_spec(("X", "Y"), ((0, 10**600), ("1e-600", 0)), ((1, 0), (0, 0)), 2)
    for files, caps in (("1e5000", None), (10**MAX_DIGITS, None), (2, (1, "-1e1000"))):
        with pytest.raises(gp.BudgetExceededError, match="1000 digits"):
            gp.make_spec(("X", "Y"), ((0, 1), (1, 0)), ((1, 0), (0, 0)), files, caps)


# --- the exact integer RTT view -----------------------------------------


def assert_exact(scaled, scale, cells):
    """``scaled / scale`` is the Fraction matrix ``cells``, and ``scale``
    is the lcm of its denominators."""
    assert scale == lcm(*(x.denominator for row in cells for x in row))
    assert tuple(tuple(Fraction(x, scale) for x in row) for row in scaled) == cells


def corpus_matrix(rng, rows, cols, pool=CORPUS_NUMBERS):
    return [[rng.choice(pool) for _ in range(cols)] for _ in range(rows)]


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
    # matrices of the fuzzer's numbers and of unreduced or padded ratios:
    # the views are the per-cell parse
    pool = CORPUS_NUMBERS + ["2/4", "6/9", "0/5", "10/4", "007/014", " 3/6 "]
    rng = random.Random(1009)
    for _ in range(40):
        n, k = rng.randint(1, 5), rng.randint(1, 3)
        rtt, demands = corpus_matrix(rng, n, n, pool), corpus_matrix(rng, n, k, pool)
        spec = gp.make_spec([f"n{i}" for i in range(n)], rtt, demands, k)
        exact_rtt = tuple(tuple(Fraction(*to_ratio(x)) for x in row) for row in rtt)
        exact_demands = tuple(tuple(Fraction(*to_ratio(x)) for x in row) for row in demands)
        assert spec.rtt == exact_rtt and spec.demands == exact_demands
        assert_exact(spec.rtt_scaled, spec.rtt_scale, exact_rtt)
        assert_exact(spec.demands_scaled, spec.demand_scale, exact_demands)
        assert spec == gp.make_spec(spec.node_ids, exact_rtt, exact_demands, k)


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
    assert all(len(slots) == 1 for slots in plc.files_by_node)
    assert plc.as_single_files() == (2, 1, 2, 0)

    for bad in (1.5, True, 1.0, "1"):
        with pytest.raises(gp.InvalidInputError, match="is not an integer"):
            gp.Placement.from_files([2, bad, 2, 0])

    multi = gp.Placement(files_by_node=((0, 2), (1,)))
    assert not all(len(slots) == 1 for slots in multi.files_by_node)
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
    assert all(len(g) == 1 for g in expanded.groups)
    assert expanded.network == ex1
    # the spec itself, so its cached integer scales are reused
    assert expanded.network is ex1
    assert expanded.provenance == ((0, 1), (1, 1), (2, 1), (3, 1))
    assert expanded.groups == ((0,), (1,), (2,), (3,))


def reference_expansion(spec, rtt, demands):
    """Ids and Fraction matrices of the unit-slot network, written out
    from the definition on ``spec``'s Fraction matrices ``rtt`` and
    ``demands``."""
    ids, slot_rtt, slot_demands, owner = [], [], [], []
    for v, cap in enumerate(spec.capacities):
        for slot in range(1, cap + 1):
            ids.append(spec.node_ids[v] if cap == 1 else f"{spec.node_ids[v]}#{slot}")
            owner.append(v)
            slot_demands.append(tuple(p / cap for p in demands[v]))
    for a in owner:
        slot_rtt.append(tuple(Fraction(0) if a == b else rtt[a][b] for b in owner))
    return ids, tuple(slot_rtt), tuple(slot_demands)


def test_multi_capacity_expansion_matches_definition():
    rng = random.Random(67)
    cases = []
    for _ in range(30):
        spec = random_spec(rng, max_nodes=5, max_files=3, multi=True)
        cases.append((spec, spec.rtt, spec.demands))
    # non-metric matrices of the fuzzer's numbers, capacities up to 3,
    # against the per-cell parse of the input
    for _ in range(30):
        n, k = rng.randint(1, 5), rng.randint(1, 3)
        rtt, demands = corpus_matrix(rng, n, n), corpus_matrix(rng, n, k)
        spec = gp.make_spec([f"n{i}" for i in range(n)], rtt, demands, k,
                            capacities=[rng.randint(1, 3) for _ in range(n)])
        cases.append((spec, [[Fraction(*to_ratio(x)) for x in row] for row in rtt],
                      [[Fraction(*to_ratio(x)) for x in row] for row in demands]))
    checked = 0
    for spec, rtt, demands in cases:
        if spec.is_unit_capacity:
            continue
        work = gp.expand_multifile(spec).network
        assert work is not spec
        ids, slot_rtt, slot_demands = reference_expansion(spec, rtt, demands)
        assert work == gp.make_spec(ids, slot_rtt, slot_demands, spec.file_count)
        assert work.rtt == slot_rtt and work.demands == slot_demands
        assert_exact(work.rtt_scaled, work.rtt_scale, slot_rtt)
        assert_exact(work.demands_scaled, work.demand_scale, slot_demands)
        checked += 1
    assert checked >= 30


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


def test_readme_example_is_the_bundled_network(tmp_path, ex1):
    """The README's network, ``tests/data/ex1.json`` and that file with
    every number quoted load to one spec: bare and quoted numbers are
    read alike."""
    root = Path(__file__).parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Network files", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    bundled = root / "tests" / "data" / "ex1.json"
    readme_path, quoted_path = tmp_path / "readme.json", tmp_path / "quoted.json"
    readme_path.write_text(example)
    quoted_path.write_text(json.dumps(quote_numbers(json.loads(bundled.read_text()))))
    assert '"0.025"' in quoted_path.read_text()
    specs = [gp.load_spec(str(path)) for path in (readme_path, bundled, quoted_path)]
    assert specs[0] == specs[1] == specs[2] == ex1


def test_csv_overrides(tmp_path, ex1):
    spec_path = tmp_path / "net.json"
    gp.save_spec(ex1, str(spec_path))
    rtt_path = tmp_path / "rtt.csv"
    rtt_path.write_text("0,1,1,1\n1,0,1,1\n1,1,0,1\n1,1,1,0\n")
    spec = gp.load_spec(str(spec_path), rtt_csv=str(rtt_path))
    assert spec.rtt[0][2] == 1
    assert spec.demands == ex1.demands
    # unreduced and padded cells, and a blank line, read as the JSON file
    rtt_path.write_text("".join(
        ",".join(f"{2 * t.numerator}/{2 * t.denominator}" for t in row) + "\n\n" for row in ex1.rtt))
    demands_path = tmp_path / "demands.csv"
    demands_path.write_text("".join(
        ",".join(f" {3 * p.numerator}/{3 * p.denominator} " for p in row) + "\n" for row in ex1.demands))
    spec = gp.load_spec(str(spec_path), rtt_csv=str(rtt_path), demands_csv=str(demands_path))
    assert spec == ex1 == gp.load_spec(str(spec_path))


def test_malformed_spec_file(tmp_path):
    path = tmp_path / "net.json"
    path.write_text('{"nodes": []}')
    with pytest.raises(gp.InvalidInputError):
        gp.load_spec(str(path))
