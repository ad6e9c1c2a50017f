"""Reference assignment solvers that exist only to check the production one.

Both work on exact ``Fraction`` entries, independent of the integer
scale ``geoplan.hungarian_min_assignment`` runs on, and return the same
canonical optimum: the lexicographically smallest optimal (class, file)
mapping.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

import geoplan as gp
from geoplan.assignment import _lex_min_zero_assignment
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
