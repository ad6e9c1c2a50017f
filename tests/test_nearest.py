"""The nearest-first order and the supplier tiers against the
definitions they replaced: supplier tiers, read from each RTT row,
against a sort of each RTT column; worst-case floors, from the one
nearest-first order per network, against a sorted outward walk; nearest
holders against ``min``."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import geoplan as gp
from conftest import random_full_placement
from crosscheck import column_sort_tiers, infeasible_instance, min_holder_fetch, sorted_walk_floors
from geoplan.nngraph import supplier_tiers


def grid_spec(rng, k, multi):
    """RTTs in 0..3, so distinct peers sit at RTT 0 and most distances
    tie; ``multi`` gives nodes capacities up to 3, whose expansions put
    sibling slots at RTT 0."""
    n = rng.randint(2 if multi else max(k, 2), 12)
    caps = [rng.choice((1, 1, 2, 3)) if multi else 1 for _ in range(n)]
    while sum(caps) < k:
        caps[rng.randrange(n)] += 1
    rtt = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            rtt[u][v] = rtt[v][u] = rng.randint(0, 3)
    demands = [[Fraction(1, n * k)] * k for _ in range(n)]
    return gp.make_spec([f"g{i}" for i in range(n)], rtt, demands, k, capacities=caps)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_the_shared_order_reproduces_each_definition(k):
    """On tie-heavy grids of up to 12 nodes and their expansions: the
    nearest-first order is the keyed sort of each row, the floors and
    nearest holders read from it match their definitions, and the
    supplier tiers, read from each row, match a sort of each column,
    also where a tie run is longer than its picks, where v's own zero is
    one of several and on expanded sibling slots."""
    rng = random.Random(2100 + k)
    seen = dict.fromkeys(("peer at 0", "tied", "tied zeros", "forced zeros", "expanded tiers"), 0)
    for trial in range(80):
        spec = grid_spec(rng, k, multi=trial % 2 == 1)
        expanded = gp.expand_multifile(spec).network
        for net in (spec,) if expanded is spec else (spec, expanded):
            n = net.node_count
            assert net.nearest == tuple(
                tuple(sorted(range(n), key=lambda u, row=row: (row[u], u)))
                for row in net.rtt_scaled
            )
            assert net.wc_floors == sorted_walk_floors(net)
            if net.is_unit_capacity:
                tiers = supplier_tiers(net)
                assert tiers == column_sort_tiers(net)
                seen["tied"] += sum(0 < t.picks < len(t.tied) for t in tiers)
                for row, t in zip(net.rtt_scaled, tiers):
                    if row.count(0) > 1:  # v's own zero among RTT-0 peers, forced or tied
                        seen["forced zeros" if t.threshold else "tied zeros"] += 1
                seen["expanded tiers"] += net is expanded and expanded is not spec
            for _ in range(3):
                placement = random_full_placement(rng, net)
                assert gp.eval_uncoded(net, placement).fetch == min_holder_fetch(net, placement)
            seen["peer at 0"] += any(
                net.rtt_scaled[u][v] == 0 for u in range(n) for v in range(u + 1, n)
            )
    assert seen["peer at 0"] and seen["expanded tiers"]
    if k > 1:  # with one file no node needs a supplier
        assert seen["tied"] and seen["tied zeros"]
    if k > 2:  # with two, an RTT-0 peer is v's threshold
        assert seen["forced zeros"]


def test_an_infeasible_plan_never_builds_the_nearest_first_order(ex1):
    """Supplier tiers read each RTT row, so a plan proven infeasible
    builds no ``NetworkSpec.nearest``; a plan that finds a placement
    builds it in its audit.  The planted square is a K4 in the conflict
    graph of a k = 3 network, as in the benchmark's infeasible pool."""
    n = 8
    rtt = [[0 if u == v else 100 for v in range(n)] for u in range(n)]
    for a in range(4):
        for b in range(4):
            if a != b:
                rtt[a][b] = 14 if (a - b) % 4 == 2 else 10
    square = gp.make_spec([f"n{i}" for i in range(n)], rtt, [[Fraction(1, 3 * n)] * 3] * n, 3)
    for spec in (infeasible_instance(), square):
        assert isinstance(gp.plan(spec), gp.InfeasiblePlan)
        assert "nearest" not in spec.__dict__
    assert isinstance(gp.plan(ex1), gp.PlanReport)
    assert "nearest" in ex1.__dict__
