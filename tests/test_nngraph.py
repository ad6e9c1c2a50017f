"""Supply-graph construction, tie enumeration, conflict graph, DOT."""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

import geoplan as gp
from conftest import bench_networks, random_spec, tie_heavy_spec
from crosscheck import (
    admissible_placements,
    closed_in,
    is_admissible,
    out_neighbors,
    pair_set_extended_graph,
)
from geoplan.nngraph import first_supply_graph, supplier_tiers


def by_id(spec, nng):
    return {
        spec.node_ids[v]: tuple(spec.node_ids[u] for u in ins)
        for v, ins in enumerate(nng.in_neighbors)
    }


def test_example_in_sets(ex1, ex1_nng):
    assert by_id(ex1, ex1_nng) == {
        "A": ("B", "D"),
        "B": ("A", "D"),
        "C": ("B", "D"),
        "D": ("A", "B"),
    }


def test_example_out_sets(ex1, ex1_nng):
    outs = out_neighbors(ex1_nng)
    assert tuple(ex1.node_ids[u] for u in outs[0]) == ("A", "B", "D")
    assert tuple(ex1.node_ids[u] for u in outs[2]) == ("C",)


def test_edge_count_is_n_times_k_minus_1(ex1_nng):
    assert len(ex1_nng.edges()) == 4 * 2
    rng = random.Random(7)
    for _ in range(20):
        spec = random_spec(rng)
        nng = gp.build_nng(spec)
        assert len(nng.edges()) == spec.node_count * (spec.file_count - 1)
        for v in range(spec.node_count):
            assert len(closed_in(nng, v)) == spec.file_count


def test_in_neighbors_are_the_nearest(ex1):
    rng = random.Random(11)
    for _ in range(20):
        spec = random_spec(rng)
        nng = gp.build_nng(spec)
        k = spec.file_count
        for v in range(spec.node_count):
            dists = sorted(spec.rtt[u][v] for u in range(spec.node_count) if u != v)
            worst_in = max(
                (spec.rtt[u][v] for u in nng.in_neighbors[v]), default=Fraction(0)
            )
            if k > 1:
                assert worst_in == dists[k - 2]


def test_build_requires_unit_capacity():
    half = Fraction(1, 2)
    spec = gp.make_spec(("X", "Y"), ((0, 1), (1, 0)), ((half, 0), (0, half)), 2, capacities=(2, 1))
    with pytest.raises(gp.InvalidSpecError):
        gp.build_nng(spec)


def test_build_requires_enough_nodes():
    spec = gp.make_spec(("X", "Y"), ((0, 1), (1, 0)), ((Fraction(1, 2), 0, 0), (0, Fraction(1, 2), 0)), 3)
    with pytest.raises(gp.InvalidSpecError):
        gp.build_nng(spec)


def test_tie_break_is_lower_node_index():
    # Z (index 1) and Y (index 2) both sit at distance 1 from X; the
    # lower index wins whatever the ids, as in enumerate_nngs order
    third = Fraction(1, 3)
    spec = gp.make_spec(
        ("X", "Z", "Y"),
        ((0, 1, 1), (1, 0, 5), (1, 5, 0)),
        ((third, 0), (third / 2, third / 2), (0, third)),
        2,
    )
    nng = gp.build_nng(spec)
    assert nng.in_neighbors == ((1,), (0,), (0,))
    assert nng == gp.enumerate_nngs(spec).graphs[0]


def test_supplier_tiers_read_each_nodes_row():
    # unvalidated and asymmetric: reading rows, a's nearest peer is b, b's
    # is c and c's is a; the columns would give c, a and b
    spec = gp.make_spec(
        ("a", "b", "c"), ((0, 1, 5), (9, 0, 2), (3, 4, 0)), [[Fraction(1, 6)] * 2] * 3, 2
    )
    assert not gp.validate_spec(spec).ok
    assert gp.build_nng(spec).in_neighbors == ((1,), (2,), (0,))
    assert [t.threshold for t in supplier_tiers(spec)] == [1, 2, 3]


def test_enumerate_nngs_without_ties_is_single(ex1):
    rng = random.Random(13)
    for _ in range(10):
        spec = random_spec(rng)
        enum = gp.enumerate_nngs(spec)
        assert enum.total == 1 and len(enum.graphs) == 1
        assert enum.graphs[0] == gp.build_nng(spec)
    # the example has ties at distance 2 but both tied nodes are taken
    enum = gp.enumerate_nngs(ex1)
    assert enum.total == 1


def test_enumerate_nngs_with_ties():
    # each node sees the other three all at distance 1: 3 choices of
    # 2 suppliers per node
    third = Fraction(1, 12)
    rtt = [[0 if u == v else 1 for v in range(4)] for u in range(4)]
    spec = gp.make_spec("PQRS", rtt, [[third] * 3] * 4, 3)
    enum = gp.enumerate_nngs(spec)
    assert enum.total == 3**4
    assert len(enum.graphs) == 64 and enum.truncated
    assert len({g.in_neighbors for g in enum.graphs}) == 64

    enum = gp.enumerate_nngs(spec, cap=100)
    assert len(enum.graphs) == 81 and not enum.truncated
    assert gp.build_nng(spec) in enum.graphs


def test_enumerate_nngs_triangle_of_ties():
    # one supplier each, picked from two tied peers: 2^3 distinct graphs
    rtt = [[0 if u == v else 1 for v in range(3)] for u in range(3)]
    spec = gp.make_spec("xyz", rtt, [[Fraction(1, 6)] * 2] * 3, 2)
    enum = gp.enumerate_nngs(spec)
    assert enum.total == 8
    assert len({g.in_neighbors for g in enum.graphs}) == 8
    assert not enum.truncated


def all_tied_spec(n):
    """n nodes all at RTT 1 from each other, k = 3, uniform demands."""
    rtt = [[int(u != v) for v in range(n)] for u in range(n)]
    return gp.make_spec([f"t{i}" for i in range(n)], rtt, [[Fraction(1, 3 * n)] * 3] * n, 3)


def test_a_capped_enumeration_is_the_start_of_the_full_one():
    # 5 nodes, each picking 2 of 4 tied peers: 6^5 = 7,776 graphs
    spec = all_tied_spec(5)
    full = gp.enumerate_nngs(spec, cap=6**5)
    assert full.total == len(full.graphs) == 6**5 and not full.truncated
    for cap in (0, 1, 2, 6, 7, 37, 500):
        enum = gp.enumerate_nngs(spec, cap=cap)
        assert enum.graphs == full.graphs[:cap]
        assert enum.truncated and enum.total == 6**5


def test_a_capped_enumeration_lists_only_the_choices_it_needs():
    """200 nodes, each picking 2 of 199 tied peers (19,701 ways, an
    859-digit total).  Listing every node's combinations peaked near
    290 MB; cap 1 needs each node's first two."""
    spec = all_tied_spec(200)
    tracemalloc.start()
    try:
        enum = gp.enumerate_nngs(spec, cap=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(enum.graphs) == 1 and enum.truncated
    assert enum.graphs[0] == gp.build_nng(spec)
    assert len(str(enum.total)) == 859
    assert peak < 5_000_000


def test_forced_and_tied_suppliers_mix():
    # for X: Y is strictly closest, then Z and W tied at 2 for one slot
    share = Fraction(1, 12)
    spec = gp.make_spec(
        ("W", "X", "Y", "Z"),
        ((0, 2, 4, 5), (2, 0, 1, 2), (4, 1, 0, 3), (5, 2, 3, 0)),
        [[share, share, share]] * 4,
        3,
    )
    enum = gp.enumerate_nngs(spec)
    per_x = sorted({g.in_neighbors[1] for g in enum.graphs})
    assert per_x == [(0, 2), (2, 3)]


def test_extended_graph_example(ex1, ex1_nng):
    h = gp.build_extended_graph(ex1_nng)
    names = {(h.node_ids[a], h.node_ids[b]) for a, b in h.edges}
    assert names == {("A", "B"), ("A", "D"), ("B", "C"), ("B", "D"), ("C", "D")}
    assert ("A", "C") not in names


def test_mask_built_conflict_graph_equals_the_pair_set():
    """The masks ``build_extended_graph`` ORs from the closed in-sets,
    and the edges derived from them, equal the sorted pair set: on the
    shared-supplier graph and every supply graph of 150 seeded networks
    with RTTs in 1..3 (half of them multi-capacity expansions) and of
    the benchmark's 40 seed-1 planted-square networks with k = 3."""
    rng = random.Random(3003)
    works = [
        gp.expand_multifile(
            tie_heavy_spec(rng, lambda work: gp.enumerate_nngs(work).total <= 64, multi=i % 2)
        ).network
        for i in range(150)
    ]
    squares = list(bench_networks(("plan-k3-infeasible",)))
    assert len(squares) == 40 and {work.file_count for work in squares} == {3}
    seen = {"tied": 0, "expanded": 0}
    for work in works + squares:
        tiers = supplier_tiers(work)
        shared = gp.NearestNeighborGraph(work.node_ids, tuple(t.shared for t in tiers))
        enum = gp.enumerate_nngs(work)
        for nng in (shared, *enum.graphs):
            h = gp.build_extended_graph(nng)
            want = pair_set_extended_graph(nng)
            assert h.node_ids == want.node_ids
            assert h.adjacency_masks == want.adjacency_masks
            assert h.edges == want.edges
        seen["tied"] += enum.total > 1
        seen["expanded"] += any("#" in node_id for node_id in work.node_ids)
    assert seen["tied"] >= 100 and seen["expanded"] >= 40, seen
    with pytest.raises(TypeError):
        gp.ExtendedGraph(("a",), edges=(), adjacency_masks=(0,))


def test_closed_in_sets_are_cliques(ex1_nng):
    rng = random.Random(17)
    specs = [random_spec(rng) for _ in range(10)]
    for nng in [ex1_nng] + [gp.build_nng(s) for s in specs]:
        h = gp.build_extended_graph(nng)
        masks = h.adjacency_masks
        for v in range(nng.node_count):
            members = closed_in(nng, v)
            for a in members:
                for b in members:
                    if a != b:
                        assert (masks[a] >> b) & 1


def test_admissibility_example(ex1_nng):
    assert is_admissible((2, 1, 2, 0), ex1_nng)
    # B in In(A): sharing a file breaks A's closed in-set
    assert not is_admissible((1, 1, 2, 0), ex1_nng)
    assert not is_admissible(gp.Placement.from_files((0, 0, 0, 0)), ex1_nng)
    with pytest.raises(gp.InvalidInputError):
        is_admissible((0, 1), ex1_nng)


def test_k2_extended_equals_deduplicated_nng():
    rng = random.Random(19)
    for _ in range(10):
        spec = random_spec(rng, k=2)
        nng = gp.build_nng(spec)
        h = gp.build_extended_graph(nng)
        undirected = {(min(s, v), max(s, v)) for s, v in nng.edges()}
        assert set(h.edges) == undirected


def test_dot_outputs_are_deterministic(ex1, ex1_nng):
    dot = gp.nng_to_dot(ex1_nng, ex1)
    assert dot == gp.nng_to_dot(gp.build_nng(ex1), ex1)
    assert '"A" -> "B" [label="2"];' in dot
    assert dot.index('"A" -> "B"') < dot.index('"B" -> "A"')
    h = gp.build_extended_graph(ex1_nng)
    hdot = gp.extended_to_dot(h)
    assert '"A" -- "B";' in hdot
    assert '"A" -- "C"' not in hdot


def test_exact_ties_in_supply_graphs_and_floors():
    # 1/3 and 2/6 tie exactly; 333/1000 is strictly closer than both
    t, c = "1/3", Fraction(333, 1000)
    rtt = (
        (0, t, "2/6", c, 1),
        (t, 0, Fraction(1, 2), 1, t),
        ("2/6", Fraction(1, 2), 0, t, c),
        (c, 1, t, 0, 1),
        (1, t, c, 1, 0),
    )
    share = Fraction(1, 15)
    spec = gp.make_spec("ABCDE", rtt, [[share] * 3] * 5, 3)
    enum = gp.enumerate_nngs(spec)
    # A: D forced, B or C; B: A and E tied; C: E forced, A or D; D: A, C; E: C, B
    assert enum.total == 4 and not enum.truncated
    choices = [sorted({g.in_neighbors[v] for g in enum.graphs}) for v in range(5)]
    assert choices == [[(1, 3), (2, 3)], [(0, 4)], [(0, 4), (3, 4)], [(0, 2)], [(1, 2)]]
    assert gp.build_nng(spec).in_neighbors == ((1, 3), (0, 4), (0, 4), (0, 2), (1, 2))

    third = Fraction(1, 3)
    assert tuple(Fraction(t, spec.rtt_scale) for t in spec.wc_floors) == (third,) * 5
    two = gp.make_spec("ABCDE", rtt, [[share] * 3] * 5, 3, capacities=(2, 1, 1, 1, 1))
    assert tuple(Fraction(t, two.rtt_scale) for t in two.wc_floors) == (c, third, third, c, third)


def test_per_node_predicate_matches_graph_enumeration():
    """Admissible for some supply graph, by enumerating every graph and
    every coloring, is exactly the per-node test: each node and its
    strictly nearer suppliers hold distinct files, and adding its tied
    peers brings in all k.  Checked on every placement of 200 networks
    through ``first_supply_graph``, the oracle and the elimination."""
    rng = random.Random(151)
    tied = 0
    for _ in range(200):
        spec = tie_heavy_spec(
            rng, lambda work: work.file_count**work.node_count <= 6561
            and gp.enumerate_nngs(work).total <= 256
        )
        k, n = spec.file_count, spec.node_count
        expected = admissible_placements(spec)
        tiers = supplier_tiers(spec)
        graphs = gp.enumerate_nngs(spec, cap=10**6).graphs
        tied += len(graphs) > 1
        for files in product(range(k), repeat=n):
            if files in expected:
                g_idx = expected[files][0]
                assert first_supply_graph(spec, tiers, files) == (g_idx, graphs[g_idx])
            else:
                with pytest.raises(gp.InvalidInputError, match="no supply graph"):
                    first_supply_graph(spec, tiers, files)
        oracle = gp.brute_force_placement(spec)
        assert oracle.scored == len(expected)
        # the elimination's conflict cliques and covers keep the same
        # placements: on random costs its optimum is the enumerated one
        h = gp.build_extended_graph(
            gp.NearestNeighborGraph(spec.node_ids, tuple(t.shared for t in tiers))
        )
        covers = [(v, *t.forced, *t.tied) for v, t in enumerate(tiers) if t.picks < len(t.tied)]
        costs = [[rng.randint(-3, 9) for _ in range(k)] for _ in range(n)]
        best = min(((sum(costs[s][j] for s, j in enumerate(f)), f) for f in expected), default=None)
        assert gp.min_cost_coloring(h, costs, covers) == best
    assert tied >= 120


def test_first_supply_graph_refuses_file_indices_out_of_range(ex1):
    """A file index outside 0..k-1 is refused, not read as a file the
    other nodes lack: (0, 1, 2, 9) and (-1, 1, 2, 0) used to come back
    as supply graph 0, while a placement short of a file is refused.
    So is a placement that does not give one file per node."""
    tiers = supplier_tiers(ex1)
    assert first_supply_graph(ex1, tiers, (0, 1, 0, 2))[0] == 0
    for files in ((0, 1, 2, 9), (-1, 1, 2, 0), (0, 1, 0, 3)):
        with pytest.raises(gp.InvalidInputError, match="out of range"):
            first_supply_graph(ex1, tiers, files)
    with pytest.raises(gp.InvalidInputError, match="no supply graph"):
        first_supply_graph(ex1, tiers, (0, 1, 2, 2))
    # one file per node: a short placement used to raise IndexError, a
    # long one had its extra entries ignored
    for files in ((0, 1, 0), (0, 1, 0, 2, 1)):
        with pytest.raises(gp.InvalidInputError, match="placement covers"):
            first_supply_graph(ex1, tiers, files)
