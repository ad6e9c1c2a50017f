"""Proper-coloring enumeration over the conflict graph."""

from __future__ import annotations

import random
from itertools import product

import pytest

import geoplan as gp
from conftest import bench_networks, random_spec
from crosscheck import (
    class_of,
    enumerate_colorings,
    infeasible_instance,
    is_proper_partition,
    reference_elimination_order,
    reference_greedy_clique,
    reference_min_cost_coloring,
)
from geoplan.nngraph import supplier_tiers


def test_example_has_unique_coloring(ex1_nng):
    h = gp.build_extended_graph(ex1_nng)
    enum = enumerate_colorings(h, 3)
    assert not enum.truncated
    assert [c.classes for c in enum.colorings] == [((0, 2), (1,), (3,))]


def test_find_coloring_example(ex1_nng):
    h = gp.build_extended_graph(ex1_nng)
    found = gp.find_coloring(h, 3)
    assert isinstance(found, gp.Coloring)
    assert found.classes == ((0, 2), (1,), (3,))
    assert class_of(found) == (0, 1, 0, 2)
    assert is_proper_partition(h, found.classes)


def test_infeasible_clique_certificate():
    spec = infeasible_instance()
    h = gp.build_extended_graph(gp.build_nng(spec))
    assert len(h.edges) == 6  # complete on 4 nodes
    found = gp.find_coloring(h, 3)
    assert isinstance(found, gp.Infeasible)
    assert found.exhausted
    assert found.certificate is not None and len(found.certificate) == 4
    masks = h.adjacency_masks
    for a in found.certificate:
        for b in found.certificate:
            if a != b:
                assert (masks[a] >> b) & 1


def _colorings_by_force(h, k):
    """Reference enumeration: label nodes 0..k-1 outright, keep proper
    surjective labelings, canonicalize to partitions."""
    n = h.node_count
    masks = h.adjacency_masks
    seen = set()
    for labels in product(range(k), repeat=n):
        if len(set(labels)) != k:
            continue
        ok = True
        for v in range(n):
            for w in range(v + 1, n):
                if labels[v] == labels[w] and (masks[v] >> w) & 1:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        classes = [[] for _ in range(k)]
        for v, c in enumerate(labels):
            classes[c].append(v)
        seen.add(tuple(sorted(tuple(c) for c in classes)))
    return seen


def test_enumeration_matches_brute_force():
    rng = random.Random(23)
    for _ in range(40):
        spec = random_spec(rng, max_nodes=6, max_files=3)
        h = gp.build_extended_graph(gp.build_nng(spec))
        k = spec.file_count
        ours = {c.classes for c in enumerate_colorings(h, k).colorings}
        assert ours == _colorings_by_force(h, k)


def test_every_enumerated_coloring_is_proper():
    rng = random.Random(29)
    for _ in range(20):
        spec = random_spec(rng, max_nodes=7, max_files=4)
        h = gp.build_extended_graph(gp.build_nng(spec))
        enum = enumerate_colorings(h, spec.file_count)
        for coloring in enum.colorings:
            assert is_proper_partition(h, coloring.classes)
            assert len(coloring.classes) == spec.file_count
            covered = sorted(v for members in coloring.classes for v in members)
            assert covered == list(range(spec.node_count))


def test_enumeration_limit_truncates():
    # edgeless graph on 6 nodes: S(6,3) = 90 partitions
    h = gp.ExtendedGraph(node_ids=tuple("abcdef"), edges=())
    full = enumerate_colorings(h, 3, limit=10_000)
    assert len(full.colorings) == 90 and not full.truncated
    cut = enumerate_colorings(h, 3, limit=10)
    assert len(cut.colorings) == 10 and cut.truncated


def test_no_duplicate_partitions():
    h = gp.ExtendedGraph(node_ids=tuple("abcde"), edges=((0, 1),))
    colorings = enumerate_colorings(h, 3).colorings
    keys = [c.classes for c in colorings]
    assert len(keys) == len(set(keys))
    # S(5,3) = 25 partitions, minus S(4,3) = 6 that join nodes 0 and 1
    assert len(keys) == 19


def test_k1_coloring():
    h = gp.ExtendedGraph(node_ids=("x", "y"), edges=())
    enum = enumerate_colorings(h, 1)
    assert [c.classes for c in enum.colorings] == [((0, 1),)]


def test_min_cost_coloring_matches_labelings_by_force():
    """Random graphs (not only conflict graphs) and tie-heavy costs: the
    elimination's (cost, files) is the minimum over every proper
    labeling, ties to the lexicographically smallest; None when no
    proper labeling exists (a 5-cycle with two colors among them)."""
    rng = random.Random(31)
    cycle = gp.ExtendedGraph(node_ids=tuple("abcde"), edges=((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
    assert gp.min_cost_coloring(cycle, [(0, 0)] * 5) is None
    for _ in range(150):
        n, k = rng.randint(1, 7), rng.randint(1, 3)
        edges = tuple((a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.35)
        h = gp.ExtendedGraph(node_ids=tuple(f"x{i}" for i in range(n)), edges=edges)
        costs = [tuple(rng.randint(0, 2) for _ in range(k)) for _ in range(n)]
        proper = [
            (sum(costs[s][j] for s, j in enumerate(files)), files)
            for files in product(range(k), repeat=n)
            if all(files[a] != files[b] for a, b in edges)
        ]
        assert gp.min_cost_coloring(h, costs) == (min(proper) if proper else None)


def _outcome(solve, h, costs, covers):
    try:
        return solve(h, costs, covers)
    except gp.BudgetExceededError as exc:
        return f"refused: {exc}"


def test_bucketed_elimination_equals_the_reference_loop(monkeypatch):
    """Seeded random graphs of 1 to 12 nodes, k from 1 to 4, random
    costs and random covers: the symbolic order and bucketed tables give
    the reference loop's (value, files), or None with it.  With
    MAX_TABLE_ROWS monkeypatched low, both raise the same message."""
    rng = random.Random(53)
    seen = {"none": 0, "solved": 0, "covered": 0, "refused": 0}
    for _ in range(400):
        n, k = rng.randint(1, 12), rng.randint(1, 4)
        density = rng.choice((0.1, 0.25, 0.4))
        edges = tuple((a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < density)
        h = gp.ExtendedGraph(node_ids=tuple(f"x{i}" for i in range(n)), edges=edges)
        costs = [[rng.randint(-3, 9) for _ in range(k)] for _ in range(n)]
        covers = [
            tuple(rng.sample(range(n), rng.randint(min(n, max(1, k - 1)), min(n, k + 2))))
            for _ in range(rng.choice((0, 0, 1, 2, 3)))
        ]
        want = reference_min_cost_coloring(h, costs, covers)
        assert gp.min_cost_coloring(h, costs, covers) == want
        seen["none" if want is None else "solved"] += 1
        seen["covered"] += bool(covers) and want is not None
        limit = rng.choice((1, 4, 16, 64))
        with monkeypatch.context() as patch:
            patch.setattr(gp.coloring, "MAX_TABLE_ROWS", limit)
            want = _outcome(reference_min_cost_coloring, h, costs, covers)
            assert _outcome(gp.min_cost_coloring, h, costs, covers) == want
        seen["refused"] += isinstance(want, str)
    assert min(seen.values()) >= 40, seen


def _forest(rng, n, shape):
    """The edges of a path, a star or a random forest on n shuffled nodes."""
    label = list(range(n))
    rng.shuffle(label)
    if shape == "path":
        pairs = [(label[i - 1], label[i]) for i in range(1, n)]
    elif shape == "star":
        pairs = [(label[0], label[i]) for i in range(1, n)]
    else:
        pairs = [(label[rng.randrange(i)], label[i]) for i in range(1, n) if rng.random() < 0.7]
    return {(min(pair), max(pair)) for pair in pairs}


def _vector_steps(h, covers):
    """Each step's scope, and whether it is a vector step: a scope of at
    most one node, and no cover and no table over two or more nodes in
    its bucket."""
    order, scopes = gp.coloring._elimination_order(h.adjacency_masks, covers)
    step = {v: i for i, v in enumerate(order)}
    filed = {min(map(step.get, c)) for c in covers if c}
    filed |= {min(map(step.get, scope)) for scope in scopes if len(scope) > 1}
    return scopes, [len(scope) < 2 and i not in filed for i, scope in enumerate(scopes)]


def test_vector_steps_equal_the_reference_loop(monkeypatch):
    """Paths, stars and forests of 1 to 10 nodes, k from 1 to 4, some
    with extra edges and covers: the vector steps give the reference
    loop's (value, files), or None with it, alone, at the root of every
    component and mixed with wider steps and covers.  With
    MAX_TABLE_ROWS at k*k - 1, where every step takes the row tables,
    and at k*k, where vector steps start, both raise the same message."""
    rng = random.Random(61)
    seen = {"vector": 0, "roots": 0, "no row": 0, "mixed": 0, "refused below": 0, "refused at": 0}
    for k in range(1, 5):
        for trial in range(120):
            n = rng.randint(1, 10)
            edges = _forest(rng, n, ("path", "star", "forest")[trial % 3])
            covers = []
            if n > 2 and trial % 2:
                for _ in range(rng.randint(1, 3)):
                    a, b = sorted(rng.sample(range(n), 2))
                    edges.add((a, b))
                covers = [tuple(rng.sample(range(n), min(n, k + rng.randint(0, 1))))]
            ids = tuple(f"x{i}" for i in range(n))
            h = gp.ExtendedGraph(node_ids=ids, edges=tuple(sorted(edges)))
            costs = [[rng.randint(-3, 9) for _ in range(k)] for _ in range(n)]
            want = reference_min_cost_coloring(h, costs, covers)
            assert gp.min_cost_coloring(h, costs, covers) == want
            scopes, vector = _vector_steps(h, covers)
            if want is None:
                seen["no row"] += any(v and s for v, s in zip(vector, scopes))
            else:
                seen["vector"] += any(v and s for v, s in zip(vector, scopes))
                seen["roots"] += sum(v and not s for v, s in zip(vector, scopes)) > 1
                seen["mixed"] += any(vector) and any(len(s) > 1 for s in scopes) and bool(covers)
            for limit, key in ((k * k - 1, "refused below"), (k * k, "refused at")):
                with monkeypatch.context() as patch:
                    patch.setattr(gp.coloring, "MAX_TABLE_ROWS", limit)
                    want = _outcome(reference_min_cost_coloring, h, costs, covers)
                    assert _outcome(gp.min_cost_coloring, h, costs, covers) == want
                seen[key] += isinstance(want, str)
    assert min(seen.values()) >= 20, seen


def _bench_conflict_graphs(names=("plan-k2-geo", "plan-k3-infeasible", "verify-small")):
    """The conflict graph and covers ``plan`` builds for each seed-1
    instance of the named benchmark workloads."""
    for work in bench_networks(names):
        tiers = supplier_tiers(work)
        shared = tuple(t.shared for t in tiers)
        covers = [(v, *t.forced, *t.tied) for v, t in enumerate(tiers) if t.picks < len(t.tied)]
        yield gp.build_extended_graph(gp.NearestNeighborGraph(work.node_ids, shared)), covers


def test_heap_elimination_order_equals_the_scan():
    """2,000 seeded random graphs of 1 to 40 nodes with 0 to 3 covers,
    and the conflict graphs and covers of the benchmark's seed-1
    ``plan-k2-geo`` and ``verify-small`` pools: the lazy heap gives the
    scan's order and scopes.  Fill both raises a node's degree above
    its starting one and, as neighbors go, lowers it below."""
    rng = random.Random(29)
    cases = list(_bench_conflict_graphs(("plan-k2-geo", "verify-small")))
    bench = len(cases)
    for _ in range(2000):
        n = rng.randint(1, 40)
        density = rng.choice((0.03, 0.08, 0.15, 0.3, 0.6))
        edges = tuple((a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < density)
        h = gp.ExtendedGraph(node_ids=tuple(f"x{i}" for i in range(n)), edges=edges)
        sizes = [rng.randint(1, min(n, 6)) for _ in range(rng.randint(0, 3))]
        covers = [tuple(rng.sample(range(n), size)) for size in sizes]
        cases.append((h, covers))
    rose = fell = 0
    for h, covers in cases:
        masks = h.adjacency_masks
        order, scopes = gp.coloring._elimination_order(masks, covers)
        assert (order, scopes) == reference_elimination_order(masks, covers)
        # each node's neighbors before any step: conflict edges and cover cliques
        start = [{w for w in range(h.node_count) if m >> w & 1} for m in masks]
        for cover in covers:
            for u in cover:
                start[u] |= set(cover) - {u}
        start = list(map(len, start))
        rose += sum(len(scope) > start[v] for v, scope in zip(order, scopes))
        fell += sum(len(scope) < start[v] for v, scope in zip(order, scopes))
    assert bench >= 200, bench
    assert rose >= 1000 and fell >= 1000, (rose, fell)


def test_greedy_clique_walks_each_seeds_neighbors_alone():
    """Seeded random graphs and the benchmark's conflict graphs: the
    clique search over each seed's neighbors returns the clique of the
    scan over every node, for every stop_above from 1 to 4."""
    rng = random.Random(67)
    graphs = [h for h, _ in _bench_conflict_graphs()]
    for _ in range(200):
        n = rng.randint(1, 14)
        density = rng.choice((0.15, 0.3, 0.5, 0.8))
        edges = tuple((a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < density)
        graphs.append(gp.ExtendedGraph(node_ids=tuple(f"x{i}" for i in range(n)), edges=edges))
    sizes = set()
    for h in graphs:
        for stop_above in range(1, 5):
            clique = gp.coloring._greedy_clique(h, stop_above)
            assert clique == reference_greedy_clique(h, stop_above)
            sizes.add(len(clique))
    assert {1, 2, 3, 4, 5} <= sizes, sizes
