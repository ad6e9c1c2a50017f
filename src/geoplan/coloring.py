"""Proper k-colorings of the conflict graph.

A coloring is an unlabeled partition into exactly k non-empty
independent classes; which file each class stores is a separate step.
``min_cost_coloring`` finds the cheapest labeled coloring exactly, by
bucket elimination (Dechter, Artificial Intelligence 113, 1999) along a
min-degree order: its work grows with the elimination width, not with
the number of colorings.  A symbolic pass on the fill bit masks fixes
the order and every step's scope before any table is built (nodes pop
from a lazy (degree, node) heap, lowest degree and then lowest index
first, in O((n + fill) log n)); each cover and each table over two
or more nodes is then filed once, in the bucket of its first-eliminated
member, and a numeric pass joins each bucket's tables.  The clique
search and the elimination read one set of adjacency masks, which
``build_extended_graph`` ORs straight from the closed in-sets (an
``ExtendedGraph`` given by pairs builds them on first use); the clique
search lists each node's neighbors from them, most neighbors first.
A table over one node is k costs, added into that node's own; a node
with at most one node in scope and an empty bucket goes by a vector
step over its k costs, the tree step of nonserial dynamic programming
(Bertele and Brioschi, 1972), with no row table.
``iter_colorings`` enumerates every partition by backtracking,
with two symmetry breaks: a seed clique (found greedily, and in
conflict graphs every closed in-neighborhood is one) is placed first so
its members pin the k classes, and classes are only opened in
first-use order so each partition appears exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import compress
from math import inf
from operator import add, itemgetter, or_
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
    masks = h.adjacency_masks
    n = h.node_count
    # most neighbors first; the sort is stable, so ties go to the lower index
    order = sorted(range(n), key=[-m.bit_count() for m in masks].__getitem__)
    # each node's neighbors, in that order: no other node can join a
    # clique that holds the seed
    near: list[list[int]] = [[] for _ in range(n)]
    for u in order:
        rest = masks[u]
        while rest:
            low = rest & -rest
            near[low.bit_length() - 1].append(u)
            rest ^= low
    best: tuple[int, ...] = ()
    for seed in order:
        clique = [seed]
        clique_mask = 1 << seed
        for u in near[seed]:
            if (clique_mask >> u) & 1:
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
    masks = h.adjacency_masks
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
    masks = h.adjacency_masks
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
    h: ExtendedGraph,
    costs: Sequence[Sequence[int]],
    covers: Sequence[Sequence[int]] = (),
) -> tuple[int, tuple[int, ...]] | None:
    """Cheapest proper coloring with ``k = len(costs[0])`` colors in
    which every node set in ``covers`` holds all k colors.

    Minimizes sum_s costs[s][files[s]] over labeled colorings ``files``
    by bucket elimination along a min-degree order.  A symbolic pass
    fixes the order and each step's scope on the fill masks alone; each
    cover enters the fill as a clique, so its first-eliminated member
    has every other member in scope.  Each cover, and each table once
    its step has built it, is then filed in the bucket of its
    first-eliminated member.  Eliminating node v joins v's own costs
    and its bucket's tables over v's scope, keeping only the rows no
    conflict edge and none of its bucket's covers rules out, then
    minimizes v away into a table over the scope.  A step that keeps no
    row proves that no such coloring exists.

    A table over one node u is not filed: its k entries are added into
    u's own k costs.  It always holds all k colors, because conflict
    edges and covers read the same under any renaming of the colors:
    if some row keeps one color of u, some row keeps each.  Node v goes
    by a vector step when its scope is at most one node u and its
    bucket holds no cover and no table.  Then u is a conflict neighbor
    of v (a fill edge without a conflict edge always comes with a table
    or cover over both nodes in v's bucket), so for each color of u, v
    takes its cheapest color, or its second cheapest where u holds that
    one; with an empty scope v adds its cheapest cost to the total.
    Such a step stands for at most k * k rows, and it runs only when
    k * k is within ``MAX_TABLE_ROWS`` (read at call time), so the
    budget could not have refused it: every refusal, and the node it
    names, is the one the row tables alone would give.

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
    masks = h.adjacency_masks
    order, scopes = _elimination_order(masks, covers)
    step = [0] * n
    for i, v in enumerate(order):
        step[v] = i
    # bucket i: the covers and the tables over two or more nodes whose
    # first-eliminated member is order[i]
    cover_bucket: list[list[Sequence[int]]] = [[] for _ in range(n)]
    for cover in covers:
        if cover:
            cover_bucket[min(map(step.__getitem__, cover))].append(cover)
    table_bucket: list[list[tuple[tuple[int, ...], dict]]] = [[] for _ in range(n)]
    bits = [1 << j for j in range(k)]  # a row holds each color j as the bit 1 << j
    grow = [(b,) for b in bits]
    free = _Free(grow)
    # per node: its k costs, tie-break included, with every table over
    # that node alone added in
    vectors: list[list[int]] = []
    weight = top
    for row in costs:
        weight //= k  # k^(n-1-s) for node s
        vectors.append([c * top + j * weight for j, c in enumerate(row)])
    vector_steps = k * k <= MAX_TABLE_ROWS
    # per step: {colors of the scope: cheapest color of its node}, v's two
    # cheapest colors after a vector step, or v's color when the scope is empty
    choice: list = []
    total = 0
    for i, v in enumerate(order):
        scope = scopes[i]
        own = vectors[v]
        if vector_steps and len(scope) < 2 and not table_bucket[i] and not cover_bucket[i]:
            if not scope:
                low = min(own)
                total += low
                choice.append(bits[own.index(low)])
                continue
            if k == 1:
                return None  # v and its conflict neighbor need two colors
            # for each color of u, v takes its cheapest color, or its second
            # cheapest where u holds that one
            low, second = sorted(own)[:2]
            first = own.index(low)
            table = [low] * k
            table[first] = second
            u = scope[0]
            vectors[u] = list(map(add, vectors[u], table))
            choice.append((bits[first], bits[own.index(second)]))
            continue

        here = (v, *scope)
        # per position: the tables to join and the covers to test once
        # their last member is in
        joins: list[list] = [[] for _ in here]
        checks: list[list] = [[] for _ in here]
        at = {u: p for p, u in enumerate(here)}
        for t_scope, t_cost in table_bucket[i]:
            idx = [at[w] for w in t_scope]
            joins[max(idx)].append((itemgetter(*idx), t_cost))
        for cover in cover_bucket[i]:
            idx = [at[w] for w in cover]
            checks[max(idx)].append(itemgetter(idx[0], *idx))  # a tuple even for one member

        keys, vals = grow, own
        for pos, u in enumerate(here):
            if pos:
                near = [p for p in range(pos) if masks[u] >> here[p] & 1]
                if near:
                    # the colors u's earlier neighbors hold, as one bit mask per row
                    held = list(map(itemgetter(near[0]), keys))
                    for p in near[1:]:
                        held = list(map(or_, held, map(itemgetter(p), keys)))
                    opts = list(map(free.__getitem__, held))
                    vals = [c for c, ext in zip(vals, opts) for _ in ext]
                    keys = [key + e for key, ext in zip(keys, opts) for e in ext]
                else:
                    vals = [c for c in vals for _ in grow]
                    keys = [key + e for key in keys for e in grow]
            for get, t_cost in joins[pos]:  # join each table once its last member is in
                extra = list(map(t_cost.get, map(get, keys)))
                if None in extra:
                    keys = [key for key, e in zip(keys, extra) if e is not None]
                    vals = [c + e for c, e in zip(vals, extra) if e is not None]
                else:
                    vals = list(map(add, vals, extra))
            for get in checks[pos]:  # test each cover once its last member is in
                full = list(map(k.__eq__, map(len, map(set, map(get, keys)))))
                keys = list(compress(keys, full))
                vals = list(compress(vals, full))
            if len(keys) > MAX_TABLE_ROWS:
                msg = f"coloring table past {MAX_TABLE_ROWS} rows at node {h.node_ids[v]}"
                raise BudgetExceededError(msg)
        if not keys:
            return None

        if not scope:
            low = min(vals)
            total += low
            choice.append(keys[vals.index(low)][0])
            continue
        # totals are unique, so a strict < keeps the one cheapest color of v
        cheapest: dict = {}
        best: dict = {}
        lowest = cheapest.get
        rest = map(itemgetter(*range(1, len(here))), keys)
        for r, c, b in zip(rest, vals, map(itemgetter(0), keys)):
            if c < lowest(r, inf):
                cheapest[r] = c
                best[r] = b
        choice.append(best)
        if len(scope) == 1:
            vectors[scope[0]] = list(map(add, vectors[scope[0]], map(cheapest.__getitem__, bits)))
        else:
            table_bucket[min(map(step.__getitem__, scope))].append((scope, cheapest))

    colors = [0] * n  # each node's color as its bit
    for i in reversed(range(n)):
        scope, pick = scopes[i], choice[i]
        if type(pick) is tuple:
            first, second = pick
            pick = second if colors[scope[0]] == first else first
        elif scope:
            pick = pick[itemgetter(*scope)(colors)]
        colors[order[i]] = pick
    return total // top, tuple(b.bit_length() - 1 for b in colors)


class _Free(dict):
    """The one-color extensions a row may take, by the bit mask of the
    colors the new node's earlier neighbors hold in it; filled on first
    use."""

    def __init__(self, grow: list[tuple[int]]):
        super().__init__()
        self.grow = grow

    def __missing__(self, held: int) -> list[tuple[int]]:
        self[held] = kept = [e for e in self.grow if not e[0] & held]
        return kept


def _elimination_order(
    masks: Sequence[int], covers: Sequence[Sequence[int]]
) -> tuple[list[int], list[tuple[int, ...]]]:
    """The min-degree elimination order on the fill masks alone (conflict
    edges, cover cliques and the edges elimination fills in), lowest
    index first among equal degrees, and each step's scope: the node's
    neighbors still alive, ascending.

    Nodes are popped from a lazy heap of (degree, node) entries: a
    node whose degree changes is pushed again, and an entry that no
    longer matches its node's degree (an eliminated node's is -1) is
    skipped, so a call costs O((n + fill) log n).
    """
    n = len(masks)
    fill = list(masks)
    for cover in covers:
        members = sum(1 << u for u in cover)
        for u in cover:
            fill[u] |= members & ~(1 << u)
    degree = [m.bit_count() for m in fill]
    heap = list(zip(degree, range(n)))
    heapify(heap)
    order: list[int] = []
    scopes: list[tuple[int, ...]] = []
    while heap:
        d, v = heappop(heap)
        if d != degree[v]:
            continue
        degree[v] = -1  # eliminated: no entry matches it again
        # a live node's fill holds live nodes only: eliminating v clears
        # v from exactly the members of its scope
        mask = fill[v]
        scope = []
        rest = mask
        while rest:
            low = rest & -rest
            scope.append(low.bit_length() - 1)
            rest ^= low
        for u in scope:
            fill[u] = grown = (fill[u] | mask) & ~(1 << u | 1 << v)
            d = grown.bit_count()
            if d != degree[u]:
                degree[u] = d
                heappush(heap, (d, u))
        order.append(v)
        scopes.append(tuple(scope))
    return order, scopes
