"""Proper-coloring enumeration over the conflict graph."""

from __future__ import annotations

import random
from itertools import product

import pytest

import geoplan as gp
from conftest import random_spec
from crosscheck import class_of, enumerate_colorings, is_proper_partition


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
    spec = gp.infeasible_instance()
    h = gp.build_extended_graph(gp.build_nng(spec))
    assert len(h.edges) == 6  # complete on 4 nodes
    found = gp.find_coloring(h, 3)
    assert isinstance(found, gp.Infeasible)
    assert found.exhausted
    assert found.certificate is not None and len(found.certificate) == 4
    masks = h.adjacency_masks()
    for a in found.certificate:
        for b in found.certificate:
            if a != b:
                assert (masks[a] >> b) & 1


def _colorings_by_force(h, k):
    """Reference enumeration: label nodes 0..k-1 outright, keep proper
    surjective labelings, canonicalize to partitions."""
    n = h.node_count
    masks = h.adjacency_masks()
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
    keys = [c.key() for c in colorings]
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
