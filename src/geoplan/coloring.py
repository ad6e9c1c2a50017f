"""Proper k-colorings of the conflict graph.

A coloring is an unlabeled partition into exactly k non-empty
independent classes; which file each class stores is a separate step.
``min_cost_coloring`` finds the cheapest labeled coloring exactly, by
bucket elimination (Dechter, Artificial Intelligence 113, 1999) along a
min-degree order: its work grows with the elimination width, not with
the number of colorings.  ``iter_colorings`` enumerates every partition
by backtracking, with two symmetry breaks: a seed clique (found
greedily, and in conflict graphs every closed in-neighborhood is one)
is placed first so its members pin the k classes, and classes are only
opened in first-use order so each partition appears exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import BudgetExceededError
from .nngraph import ExtendedGraph

#: most rows one elimination step may hold; past it ``min_cost_coloring``
#: raises ``BudgetExceededError`` instead of returning a worse coloring
MAX_TABLE_ROWS = 100_000


@dataclass(frozen=True)
class Coloring:
    """Partition into k classes; ``classes`` sorted by smallest member."""

    classes: tuple[tuple[int, ...], ...]

    @classmethod
    def from_files(cls, files: Sequence[int], k: int) -> Coloring:
        """The partition a labeled coloring (one file per node) induces."""
        classes: list[list[int]] = [[] for _ in range(k)]
        for s, j in enumerate(files):
            classes[j].append(s)
        return cls(classes=tuple(sorted(tuple(c) for c in classes)))

    def key(self) -> tuple[tuple[int, ...], ...]:
        """Canonical comparison key."""
        return self.classes


@dataclass(frozen=True)
class Infeasible:
    """No proper k-coloring exists.

    ``certificate`` is a clique of k+1 nodes when the search found one,
    otherwise None with ``exhausted`` confirming the full search ran.
    """

    certificate: tuple[int, ...] | None
    exhausted: bool = True


def _greedy_clique(h: ExtendedGraph, stop_above: int) -> tuple[int, ...]:
    """Largest clique found greedily; stops early past ``stop_above`` nodes."""
    masks = h.adjacency_masks()
    n = h.node_count
    order = sorted(range(n), key=lambda v: (-masks[v].bit_count(), v))
    best: tuple[int, ...] = ()
    for seed in order:
        clique = [seed]
        clique_mask = 1 << seed
        for u in order:
            if u == seed or (clique_mask >> u) & 1:
                continue
            if masks[u] & clique_mask == clique_mask:
                clique.append(u)
                clique_mask |= 1 << u
                if len(clique) > stop_above:
                    return tuple(sorted(clique))
        if len(clique) > len(best):
            best = tuple(sorted(clique))
            if len(best) > stop_above:
                break
    return best


def _vertex_order(h: ExtendedGraph, k: int) -> list[int]:
    masks = h.adjacency_masks()
    seed = _greedy_clique(h, stop_above=k)[: k + 1]
    rest = sorted(
        (v for v in range(h.node_count) if v not in seed),
        key=lambda v: (-masks[v].bit_count(), v),
    )
    return list(seed) + rest


def iter_colorings(h: ExtendedGraph, k: int) -> Iterator[Coloring]:
    """Yield every partition into exactly k proper classes, each once.

    Deterministic order fixed by the internal vertex order.
    """
    n = h.node_count
    if k < 1 or n == 0:
        return
    masks = h.adjacency_masks()
    order = _vertex_order(h, k)
    class_masks = [0] * k
    assigned: list[int] = []

    def walk(pos: int, used: int) -> Iterator[Coloring]:
        if pos == n:
            if used == k:
                classes = [[] for _ in range(k)]
                for node, cls in zip(order, assigned):
                    classes[cls].append(node)
                yield Coloring(
                    classes=tuple(sorted(tuple(sorted(c)) for c in classes))
                )
            return
        if used + (n - pos) < k:
            return  # not enough nodes left to open all k classes
        v = order[pos]
        limit = min(used + 1, k)
        for cls in range(limit):
            if class_masks[cls] & masks[v]:
                continue
            class_masks[cls] |= 1 << v
            assigned.append(cls)
            yield from walk(pos + 1, max(used, cls + 1))
            assigned.pop()
            class_masks[cls] &= ~(1 << v)

    yield from walk(0, 0)


def find_coloring(h: ExtendedGraph, k: int) -> Coloring | Infeasible:
    """First coloring in enumeration order, or an infeasibility witness."""
    for coloring in iter_colorings(h, k):
        return coloring
    return Infeasible(certificate=conflict_clique(h, k), exhausted=True)


def conflict_clique(h: ExtendedGraph, k: int) -> tuple[int, ...] | None:
    """k+1 mutually conflicting nodes found greedily, which prove that no
    proper k-coloring exists; None when the greedy search finds none."""
    clique = _greedy_clique(h, stop_above=k)
    return clique[: k + 1] if len(clique) > k else None


def min_cost_coloring(
    h: ExtendedGraph, costs: Sequence[Sequence[int]]
) -> tuple[int, tuple[int, ...]] | None:
    """Cheapest proper coloring with ``k = len(costs[0])`` colors.

    Minimizes sum_s costs[s][files[s]] over labeled colorings ``files``
    by bucket elimination along a min-degree order.  Eliminating node v
    joins v's own costs and every table that mentions v over v's
    current neighbors, keeping only the rows no conflict edge rules
    out, then minimizes v away into a table over those neighbors.  A
    step that keeps no row proves that no proper coloring exists.

    Ties go to the lexicographically smallest ``files``: every cost is
    scaled by k^n and node s adds files[s] * k^(n-1-s), so no two
    colorings total the same and the optimum is unique.

    Returns (minimum cost, files), or None when no proper coloring
    exists.  Raises ``BudgetExceededError`` when one step would hold
    more than ``MAX_TABLE_ROWS`` rows.
    """
    n = h.node_count
    k = len(costs[0])
    top = k**n
    masks = h.adjacency_masks()
    fill = list(masks)  # conflict edges plus the edges elimination fills in
    alive = set(range(n))
    # tables: (scope, {colors of scope: (cheapest cost, color of the node eliminated)})
    tables: list[tuple[tuple[int, ...], dict]] = []
    steps = []  # (node, scope, its table), in elimination order
    total = 0
    for _ in range(n):
        v = min(alive, key=lambda u: (fill[u].bit_count(), u))
        alive.discard(v)
        scope = tuple(u for u in sorted(alive) if fill[v] >> u & 1)
        here = (v, *scope)
        mine = [([here.index(w) for w in t[0]], t[1]) for t in tables if v in t[0]]
        tables = [t for t in tables if v not in t[0]]

        weight = k ** (n - 1 - v)
        rows = {(j,): c * top + j * weight for j, c in enumerate(costs[v])}
        for pos, u in enumerate(here):
            if pos:
                near = [i for i in range(pos) if masks[u] >> here[i] & 1]
                grown = {}
                for key, c in rows.items():
                    banned = {key[i] for i in near}
                    for j in range(k):
                        if j not in banned:
                            grown[key + (j,)] = c
                rows = grown
            for idx, t_rows in mine:  # join each table once its last member is in
                if max(idx) == pos:
                    rows = {
                        key: c + extra[0]
                        for key, c in rows.items()
                        if (extra := t_rows.get(tuple([key[i] for i in idx]))) is not None
                    }
            if len(rows) > MAX_TABLE_ROWS:
                msg = f"coloring table past {MAX_TABLE_ROWS} rows at node {h.node_ids[v]}"
                raise BudgetExceededError(msg)
        if not rows:
            return None

        # in descending cost order the cheapest color of v is written last
        ranked = sorted(rows.items(), key=lambda row: row[1], reverse=True)
        best = {key[1:]: (c, key[0]) for key, c in ranked}
        steps.append((v, scope, best))
        if scope:
            tables.append((scope, best))
        else:
            total += best[()][0]
        for u in scope:
            fill[u] = (fill[u] | fill[v]) & ~(1 << u | 1 << v)

    files = [0] * n
    for v, scope, best in reversed(steps):
        files[v] = best[tuple([files[u] for u in scope])][1]
    return total // top, tuple(files)
