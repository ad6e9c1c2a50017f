"""The one nearest-first order per network against the definitions it
replaced: supplier tiers from a sort of each RTT column, worst-case
floors from a sorted outward walk, nearest holders by ``min``."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import geoplan as gp
from conftest import random_full_placement
from crosscheck import column_sort_tiers, min_holder_fetch, sorted_walk_floors
from geoplan.nngraph import supplier_tiers


def grid_spec(rng, k, multi):
    """RTTs in 0..3, so distinct peers sit at RTT 0 and most distances
    tie; ``multi`` gives nodes capacities up to 3, whose expansions put
    sibling slots at RTT 0."""
    n = rng.randint(2 if multi else max(k, 2), 8)
    caps = [rng.choice((1, 1, 2, 3)) if multi else 1 for _ in range(n)]
    while sum(caps) < k:
        caps[rng.randrange(n)] += 1
    rtt = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            rtt[u][v] = rtt[v][u] = rng.randint(0, 3)
    demands = [[Fraction(1, n * k)] * k for _ in range(n)]
    return gp.make_spec([f"g{i}" for i in range(n)], rtt, demands, k, capacities=caps)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_the_shared_order_reproduces_each_definition(k):
    rng = random.Random(2100 + k)
    seen = {"peer at 0": 0, "tied": 0, "expanded": 0}
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
            for _ in range(3):
                placement = random_full_placement(rng, net)
                assert gp.eval_uncoded(net, placement).fetch == min_holder_fetch(net, placement)
            seen["peer at 0"] += any(
                net.rtt_scaled[u][v] == 0 for u in range(n) for v in range(u + 1, n)
            )
            seen["expanded"] += net is expanded and expanded is not spec
    assert seen["peer at 0"] and seen["expanded"]
    assert seen["tied"] or k == 1  # with one file no node needs a supplier
