from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import geoplan as gp

BENCH = Path(__file__).resolve().parent.parent / "bench"

ACCEPTANCE_TITLES = {
    1: "golden cost matrix solved exactly in under a millisecond",
    2: "reduction trace: step-1 matrix, adjustment 7/20, full matching",
    3: "transmit-cost rows match independent recomputation",
    4: "planner equals brute-force oracle on 200 random networks",
    5: "matrix solver equals factorial search, 100 matrices per size",
    6: "placements sit exactly on worst-case floors, others never below",
    7: "receive-side, transmit-side and direct averages coincide",
    8: "capacity expansion conserves demand and evaluation",
    9: "distance-optimal codes hit every worst-case floor",
    10: "a binary code on the example beats the best uncoded placement",
}

_acceptance_outcomes: dict[int, str] = {}


def quote_numbers(data):
    """``data`` with every int and float leaf replaced by the string
    ``json.dumps`` writes for it, so a file written from the result
    holds each number quoted exactly as it would stand bare.  Booleans,
    NaN and the infinities, which JSON cannot quote as numbers, stay."""
    if isinstance(data, dict):
        return {key: quote_numbers(value) for key, value in data.items()}
    if isinstance(data, list):
        return [quote_numbers(value) for value in data]
    if isinstance(data, bool) or not isinstance(data, (int, float)):
        return data
    return json.dumps(data) if math.isfinite(data) else data


def pytest_runtest_logreport(report):
    m = re.search(r"test_acceptance\.py::test_criterion_(\d+)", report.nodeid)
    if not m:
        return
    num = int(m.group(1))
    if report.failed:
        _acceptance_outcomes[num] = "FAIL"
    elif report.when == "call" and report.passed:
        _acceptance_outcomes.setdefault(num, "PASS")


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_acceptance_outcomes):
        title = ACCEPTANCE_TITLES.get(num, "criterion")
        terminalreporter.write_line(
            f"[criterion {num:02d}] {title}: {_acceptance_outcomes[num]}"
        )


@pytest.fixture
def ex1():
    return gp.example_instance()


@pytest.fixture
def ex1_nng(ex1):
    return gp.build_nng(ex1)


def random_spec(rng, n=None, k=None, max_nodes=7, max_files=4, multi=False):
    """Random network: distinct integer RTTs, integer-weight demands.

    Distinct distances keep the nearest-neighbor graph unique, which is
    what the planner/oracle comparisons assume; demands are w/total for
    integer w so they sum to exactly 1.
    """
    if n is None:
        n = rng.randint(2, max_nodes)
    if k is None:
        k = rng.randint(1, min(max_files, n))
    dists = rng.sample(range(1, 10_000), n * (n - 1) // 2)
    rtt = [[Fraction(0)] * n for _ in range(n)]
    it = iter(dists)
    for u in range(n):
        for v in range(u + 1, n):
            d = Fraction(next(it))
            rtt[u][v] = rtt[v][u] = d
    caps = None
    if multi:
        caps = [rng.randint(1, 2) for _ in range(n)]
        while sum(caps) < k:
            caps[rng.randrange(n)] += 1
    weights = [[rng.randint(0, 9) for _ in range(k)] for _ in range(n)]
    if not any(w for row in weights for w in row):
        weights[0][0] = 1
    total = sum(w for row in weights for w in row)
    demands = [[Fraction(w, total) for w in row] for row in weights]
    ids = [f"n{i}" for i in range(n)]
    return gp.make_spec(ids, rtt, demands, k, capacities=caps)


def bench_networks(names, seed=1):
    """The unit-capacity network ``plan`` works on for each instance of
    the named benchmark workloads at ``seed``."""
    sys.path.insert(0, str(BENCH))
    try:
        from workloads import generate
    finally:
        sys.path.remove(str(BENCH))
    params = json.loads((BENCH / "workloads.json").read_text())
    for name in names:
        for inst in generate(name, params[name], seed):
            yield gp.expand_multifile(gp.spec_from_dict(inst.network)).network


def tie_heavy_spec(rng, accept, multi=False):
    """Random network with RTTs in 1..3, so most nodes have tied peers,
    drawn until ``accept`` holds for its unit-capacity expansion.
    ``multi`` gives about a quarter of the nodes capacity two."""
    while True:
        k = rng.choice((2, 3, 4))
        n = rng.randint(k, 9)
        caps = [rng.choice((1, 1, 1, 2)) if multi else 1 for _ in range(n)]
        rtt = [[0] * n for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                rtt[u][v] = rtt[v][u] = rng.randint(1, 3)
        weights = [[rng.randint(0, 4) for _ in range(k)] for _ in range(n)]
        weights[0][0] += 1
        total = sum(map(sum, weights))
        demands = [[Fraction(w, total) for w in row] for row in weights]
        spec = gp.make_spec([f"t{i}" for i in range(n)], rtt, demands, k, capacities=caps)
        if accept(gp.expand_multifile(spec).network):
            return spec


def random_admissible_pair(rng, max_nodes=7, max_files=4):
    """(spec, nng, files) with the placement admissible by construction:
    a proper coloring with a random class-to-file bijection."""
    while True:
        spec = random_spec(rng, max_nodes=max_nodes, max_files=max_files)
        nng = gp.build_nng(spec)
        found = gp.find_coloring(gp.build_extended_graph(nng), spec.file_count)
        if isinstance(found, gp.Infeasible):
            continue
        perm = list(range(spec.file_count))
        rng.shuffle(perm)
        files = [0] * spec.node_count
        for idx, members in enumerate(found.classes):
            for v in members:
                files[v] = perm[idx]
        return spec, nng, tuple(files)


def random_full_placement(rng, spec):
    """A random placement filling every slot of ``spec`` and holding
    every file: files 0..k-1 on distinct random slots, the other slots
    random."""
    slots = [v for v, cap in enumerate(spec.capacities) for _ in range(cap)]
    rng.shuffle(slots)
    k = spec.file_count
    files_by_node = [[] for _ in spec.capacities]
    for i, v in enumerate(slots):
        files_by_node[v].append(i if i < k else rng.randrange(k))
    return gp.Placement(tuple(map(tuple, files_by_node)))
