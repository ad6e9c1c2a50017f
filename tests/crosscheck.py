"""Reference code that exists only to check the production code.

The two assignment solvers work on exact ``Fraction`` entries,
independent of the integer scale ``geoplan.hungarian_min_assignment``
runs on, and return the same canonical optimum: the lexicographically
smallest optimal (class, file) mapping.  The coloring helpers collect
``geoplan.iter_colorings`` and check partitions; ``receive_side_avg``
is the receive-side form of the average latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import geoplan as gp
from geoplan.assignment import _lex_min_zero_assignment
from geoplan.evaluation import _as_placement
from geoplan.rational import to_fraction

#: largest matrix brute_force_assignment will accept (k! blowup)
BRUTE_FORCE_LIMIT = 9


def _as_rows(cost) -> list[list[Fraction]]:
    if isinstance(cost, gp.ColorCostMatrix):
        rows = [list(row) for row in cost.values]
    else:
        rows = [[to_fraction(x) for x in row] for row in cost]
    k = len(rows)
    if k == 0 or any(len(row) != k for row in rows):
        raise gp.InvalidInputError("cost matrix must be square and non-empty")
    return rows


def shortest_path_min_assignment(cost) -> gp.FileMap:
    """O(k^3) shortest-augmenting-path solver with dual potentials."""
    matrix = _as_rows(cost)
    k = len(matrix)
    inf = float("inf")
    zero = Fraction(0)
    u = [zero] * (k + 1)
    v = [zero] * (k + 1)
    col_owner = [0] * (k + 1)  # 1-based row owning each column, 0 = free
    way = [0] * (k + 1)
    for i in range(1, k + 1):
        col_owner[0] = i
        j0 = 0
        minv = [inf] * (k + 1)
        used = [False] * (k + 1)
        while True:
            used[j0] = True
            i0 = col_owner[j0]
            delta = inf
            j1 = 0
            for j in range(1, k + 1):
                if used[j]:
                    continue
                cur = matrix[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(k + 1):
                if used[j]:
                    u[col_owner[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if col_owner[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            col_owner[j0] = col_owner[j1]
            j0 = j1
    reduced = [
        [matrix[r][c] - u[r + 1] - v[c + 1] for c in range(k)] for r in range(k)
    ]
    assignment = _lex_min_zero_assignment(reduced)
    total = sum((matrix[r][assignment[r]] for r in range(k)), Fraction(0))
    return gp.FileMap(assignment=assignment, cost=total)


def brute_force_assignment(cost) -> gp.FileMap:
    """Exhaustive minimum over all k! bijections; first optimum in
    lexicographic order wins.  Refuses matrices past the size guard."""
    matrix = _as_rows(cost)
    k = len(matrix)
    if k > BRUTE_FORCE_LIMIT:
        raise gp.BudgetExceededError(
            f"brute force over {k}! bijections refused (limit {BRUTE_FORCE_LIMIT})"
        )
    best: tuple[int, ...] | None = None
    best_cost: Fraction | None = None
    for perm in permutations(range(k)):
        total = sum((matrix[r][perm[r]] for r in range(k)), Fraction(0))
        if best_cost is None or total < best_cost:
            best_cost = total
            best = perm
    assert best is not None and best_cost is not None
    return gp.FileMap(assignment=best, cost=best_cost)


@dataclass(frozen=True)
class ColoringEnumeration:
    colorings: tuple[gp.Coloring, ...]
    truncated: bool


def enumerate_colorings(h: gp.ExtendedGraph, k: int, limit: int = 10_000) -> ColoringEnumeration:
    """Collect up to ``limit`` colorings; flags truncation if more exist."""
    out: list[gp.Coloring] = []
    truncated = False
    for coloring in gp.iter_colorings(h, k):
        if len(out) == limit:
            truncated = True
            break
        out.append(coloring)
    return ColoringEnumeration(colorings=tuple(out), truncated=truncated)


def is_proper_partition(h: gp.ExtendedGraph, classes) -> bool:
    """Independent-set check for every class."""
    masks = h.adjacency_masks()
    for members in classes:
        for v in members:
            for w in members:
                if w != v and (masks[v] >> w) & 1:
                    return False
    return True


def class_of(coloring: gp.Coloring) -> tuple[int, ...]:
    """Per node index, the index of its class."""
    n = sum(len(c) for c in coloring.classes)
    out = [0] * n
    for idx, members in enumerate(coloring.classes):
        for v in members:
            out[v] = idx
    return tuple(out)


def receive_side_avg(spec: gp.NetworkSpec, nng: gp.NearestNeighborGraph, placement) -> Fraction:
    """Average latency computed from the receive side of the supply graph.

    Each node fetches every file from within its closed in-set, which
    requires the placement to be admissible; the result then equals the
    direct evaluation's average, since in-neighbors are exactly the
    nearest nodes.
    """
    plc = _as_placement(spec, placement)
    if not plc.is_unit:
        raise gp.InvalidInputError("receive-side form needs one file per node; expand first")
    files = plc.as_single_files()
    if not gp.is_admissible(files, nng):
        raise gp.InvalidInputError("placement is not admissible for this graph")
    total = Fraction(0)
    for v in range(spec.node_count):
        for s in nng.closed_in(v):
            total += spec.rtt[s][v] * spec.demands[v][files[s]]
    return total
