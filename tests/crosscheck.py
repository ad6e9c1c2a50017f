"""Reference code that exists only to check the production code.

The two assignment solvers read exact ``Fraction`` entries,
independent of the integer scale ``geoplan.hungarian_min_assignment``
runs on (the factorial search sums integers over the matrix's own
common denominator), and return the same canonical optimum: the
lexicographically smallest optimal (class, file) mapping.  The
coloring helpers collect ``geoplan.iter_colorings`` and check
partitions; ``reference_min_cost_coloring`` is the elimination as one
loop that scans every table and cover at each step, the reference for
``geoplan.min_cost_coloring``'s symbolic pass, buckets and vector
steps; ``reference_elimination_order`` is the min-degree order as a
scan of every live node per step, which ``coloring._elimination_order``
reproduces from a lazy heap; ``reference_greedy_clique`` is the clique
search that scans every node for every seed, which
``coloring._greedy_clique`` reproduces from each seed's neighbors alone.
``pair_set_extended_graph`` builds the conflict graph as a sorted set
of pairs, which ``geoplan.build_extended_graph`` reproduces as bit
masks.
``receive_side_avg`` is the receive-side form of the average latency,
``out_neighbors`` lists the nodes each node serves (the sender-side
definition ``geoplan.tx_latency_matrix`` reproduces from in-edges),
and ``is_admissible`` checks a placement against one supply graph.
``admissible_placements`` finds the placements that some supply graph
admits by enumerating every supply graph and every coloring of it.
``column_sort_tiers``, ``sorted_walk_floors`` and ``min_holder_fetch``
are the per-node supplier tiers, worst-case floors and nearest-holder
latencies computed from their definitions, each with its own sort or
``min``, for the one shared ``NetworkSpec.nearest`` order to reproduce.  ``product_oracle`` is the
oracle's exhaustive loop over all k^slots slot functions, each
placement counted once through its sibling-sorted representative,
kept as the reference its depth-first search must reproduce.
``per_cell_scaled_rows`` parses every matrix cell on its own, the
definition ``geoplan.rational.scaled_rows`` must reproduce while it
parses each distinct string literal once, and ``fraction_decimal``
rounds through ``Fraction`` arithmetic and ``round``, the definition
``geoplan.rational.frac_decimal`` reproduces on integers.
``carry_less_mul`` and ``carry_less_inv`` multiply and invert in
GF(2^m) bit by bit, the reference for ``geoplan.gf.BinaryField``'s
log/antilog tables.  ``rref_solution_space`` and
``rref_matrix_rank`` solve and rank through a full-width reduced row
echelon form with its accumulated transform, the reference for
``geoplan.gf``'s column-by-column elimination that stops at the k-th
independent column.  ``closed_in`` (a node and its suppliers),
``matrix_rank`` (the columns ``gf._eliminate`` keeps) and
``code_is_admissible`` (whether every closed in-set decodes all files)
check a linear code against one supply graph.
``example_instance_uniform`` is the walkthrough network with flat
demands, and ``infeasible_instance`` a four-node network whose
conflict graph is K4.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import chain, combinations, permutations, product
from math import lcm
from operator import itemgetter, or_
from typing import Sequence

import geoplan as gp
from geoplan import coloring
from geoplan.assignment import _lex_min_zero_assignment
from geoplan.evaluation import _as_placement, _code_matrix
from geoplan.gf import _eliminate
from geoplan.nngraph import SupplierTier
from geoplan.rational import _BOUND, DECIMAL_PLACES, MAX_DIGITS, lowest_terms, to_ratio

#: largest matrix brute_force_assignment will accept (k! blowup)
BRUTE_FORCE_LIMIT = 9


def _as_rows(cost) -> list[list[Fraction]]:
    if isinstance(cost, gp.CostMatrix):
        rows = [list(row) for row in cost.values]
    else:
        rows = [[Fraction(*to_ratio(x)) for x in row] for row in cost]
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
    # every sum exact on integers over the matrix's own common denominator
    scale = lcm(*(x.denominator for row in matrix for x in row))
    rows = [[x.numerator * (scale // x.denominator) for x in row] for row in matrix]
    best: tuple[int, ...] | None = None
    best_total: int | None = None
    for perm in permutations(range(k)):
        total = sum(map(list.__getitem__, rows, perm))
        if best_total is None or total < best_total:
            best_total = total
            best = perm
    assert best is not None and best_total is not None
    return gp.FileMap(assignment=best, cost=Fraction(best_total, scale))


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


def reference_min_cost_coloring(
    h: gp.ExtendedGraph,
    costs: Sequence[Sequence[int]],
    covers: Sequence[Sequence[int]] = (),
) -> tuple[int, tuple[int, ...]] | None:
    """``geoplan.min_cost_coloring`` as one interleaved loop: each step
    picks the min-degree node on the fill masks, scans every live table
    and cover for the ones that mention it, grows its rows as per-row
    dicts of color tuples and sorts them to minimize the node away.
    Same order, same ``MAX_TABLE_ROWS`` check after each position (read
    from ``geoplan.coloring`` at call time) and the same message."""
    n = h.node_count
    k = len(costs[0])
    top = k**n
    masks = h.adjacency_masks
    fill = list(masks)
    for cover in covers:
        members = sum(1 << u for u in cover)
        for u in cover:
            fill[u] |= members & ~(1 << u)
    alive = set(range(n))
    tables: list[tuple[tuple[int, ...], dict]] = []
    steps = []
    total = 0
    for _ in range(n):
        v = min(alive, key=lambda u: (fill[u].bit_count(), u))
        alive.discard(v)
        scope = tuple(u for u in sorted(alive) if fill[v] >> u & 1)
        here = (v, *scope)
        mine = [([here.index(w) for w in t[0]], t[1]) for t in tables if v in t[0]]
        tables = [t for t in tables if v not in t[0]]
        checks = [[here.index(w) for w in c] for c in covers if v in c]
        covers = [c for c in covers if v not in c]

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
            for idx, t_rows in mine:
                if max(idx) == pos:
                    rows = {
                        key: c + extra[0]
                        for key, c in rows.items()
                        if (extra := t_rows.get(tuple([key[i] for i in idx]))) is not None
                    }
            for idx in checks:
                if max(idx) == pos:
                    rows = {key: c for key, c in rows.items() if len({key[i] for i in idx}) == k}
            if len(rows) > coloring.MAX_TABLE_ROWS:
                msg = f"coloring table past {coloring.MAX_TABLE_ROWS} rows at node {h.node_ids[v]}"
                raise gp.BudgetExceededError(msg)
        if not rows:
            return None

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


def reference_elimination_order(
    masks: Sequence[int], covers: Sequence[Sequence[int]]
) -> tuple[list[int], list[tuple[int, ...]]]:
    """``coloring._elimination_order`` as a scan of every live node per
    step: ``min`` over the ascending live list picks the lowest degree,
    lowest index first, and ``remove`` drops it, O(n) each."""
    n = len(masks)
    fill = list(masks)
    for cover in covers:
        members = sum(1 << u for u in cover)
        for u in cover:
            fill[u] |= members & ~(1 << u)
    degree = [m.bit_count() for m in fill]
    alive = list(range(n))
    order: list[int] = []
    scopes: list[tuple[int, ...]] = []
    for _ in range(n):
        v = min(alive, key=degree.__getitem__)
        alive.remove(v)
        mask = fill[v]
        scope = tuple(u for u in range(n) if mask >> u & 1)
        for u in scope:
            fill[u] = (fill[u] | mask) & ~(1 << u | 1 << v)
            degree[u] = fill[u].bit_count()
        order.append(v)
        scopes.append(scope)
    return order, scopes


def reference_greedy_clique(h: gp.ExtendedGraph, stop_above: int) -> tuple[int, ...]:
    """``coloring._greedy_clique`` as a scan of every node, in degree
    order, for every seed."""
    masks = h.adjacency_masks
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


def pair_set_extended_graph(nng: gp.NearestNeighborGraph) -> gp.ExtendedGraph:
    """The conflict graph from its pairs: every pair of each closed
    in-neighborhood, as (lower, higher), collected in a set and sorted.
    ``geoplan.build_extended_graph`` ORs the same pairs into bit masks."""
    edges: set[tuple[int, int]] = set()
    for v, sources in enumerate(nng.in_neighbors):
        edges.update(combinations(sorted((v, *sources)), 2))
    return gp.ExtendedGraph(node_ids=nng.node_ids, edges=tuple(sorted(edges)))


def is_proper_partition(h: gp.ExtendedGraph, classes) -> bool:
    """Independent-set check for every class."""
    masks = h.adjacency_masks
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


def out_neighbors(nng: gp.NearestNeighborGraph) -> tuple[tuple[int, ...], ...]:
    """Per node s: sorted nodes served by s, including s itself."""
    out: list[list[int]] = [[s] for s in range(nng.node_count)]
    for v, sources in enumerate(nng.in_neighbors):
        for s in sources:
            out[s].append(v)
    return tuple(tuple(sorted(o)) for o in out)


def closed_in(nng: gp.NearestNeighborGraph, v: int) -> tuple[int, ...]:
    """Node v plus its suppliers, sorted."""
    return tuple(sorted((v, *nng.in_neighbors[v])))


def is_admissible(placement: gp.Placement | Sequence[int], nng: gp.NearestNeighborGraph) -> bool:
    """Whether a single-file-per-node placement serves every node from
    within its closed in-neighborhood.

    True exactly when the files stored across each closed in-neighborhood
    are pairwise distinct, which makes them all k files.
    """
    if isinstance(placement, gp.Placement):
        files = placement.as_single_files()
    else:
        files = tuple(int(f) for f in placement)
    if len(files) != nng.node_count:
        raise gp.InvalidInputError("placement length does not match the graph")
    for v in range(nng.node_count):
        members = closed_in(nng, v)
        if len({files[s] for s in members}) != len(members):
            return False
    return True


def receive_side_avg(spec: gp.NetworkSpec, nng: gp.NearestNeighborGraph, placement) -> Fraction:
    """Average latency computed from the receive side of the supply graph.

    Each node fetches every file from within its closed in-set, which
    requires the placement to be admissible; the result then equals the
    direct evaluation's average, since in-neighbors are exactly the
    nearest nodes.
    """
    plc = _as_placement(spec, placement)
    if any(len(slots) != 1 for slots in plc.files_by_node):
        raise gp.InvalidInputError("receive-side form needs one file per node; expand first")
    files = plc.as_single_files()
    if not is_admissible(files, nng):
        raise gp.InvalidInputError("placement is not admissible for this graph")
    total = Fraction(0)
    for v in range(spec.node_count):
        for s in closed_in(nng, v):
            total += spec.rtt[s][v] * spec.demands[v][files[s]]
    return total


def column_sort_tiers(spec: gp.NetworkSpec) -> tuple[SupplierTier, ...]:
    """Per node v of a unit-capacity spec: the (k-1)-th smallest RTT to
    v from a sort of v's column, the peers strictly closer, the peers
    at exactly that RTT, all by index, and the suppliers that every
    choice of the tied peers to take includes."""
    need = spec.file_count - 1
    tiers = []
    for v, column in enumerate(zip(*spec.rtt_scaled)):
        others = [s for s in range(spec.node_count) if s != v]
        threshold = sorted(column[s] for s in others)[need - 1] if need else 0
        forced = tuple(s for s in others if column[s] < threshold)
        tied = tuple(s for s in others if column[s] == threshold) if need else ()
        picks = need - len(forced)
        always = set(tied).intersection(*combinations(tied, picks))
        tiers.append(SupplierTier(threshold, forced, tied, picks, tuple(sorted({*forced, *always}))))
    return tuple(tiers)


def sorted_walk_floors(spec: gp.NetworkSpec) -> tuple[int, ...]:
    """Per node v, on the RTT scale: the distance at which the
    capacities of v's peers, added nearest first, cover the files v
    cannot keep (0 when v keeps them all)."""
    floors = []
    for v, dist in enumerate(spec.rtt_scaled):
        need = spec.file_count - spec.capacities[v]
        floor = 0
        for u in sorted((u for u in range(spec.node_count) if u != v), key=dist.__getitem__):
            if need <= 0:
                break
            need -= spec.capacities[u]
            floor = dist[u]
        floors.append(floor)
    return tuple(floors)


def min_holder_fetch(spec: gp.NetworkSpec, placement) -> tuple[tuple[int, ...], ...]:
    """Per node v and file j, on the RTT scale: v's distance to the
    nearest holder of j, found by ``min`` over the holders in index
    order."""
    by_node = _as_placement(spec, placement).files_by_node
    holders = [[v for v, slots in enumerate(by_node) if j in slots] for j in range(spec.file_count)]
    return tuple(
        tuple(dist[min(h, key=dist.__getitem__)] for h in holders) for dist in spec.rtt_scaled
    )


def admissible_placements(spec: gp.NetworkSpec) -> dict[tuple[int, ...], tuple[int, Fraction]]:
    """Per unit placement admissible for some supply graph: (index of the
    first such graph in ``enumerate_nngs`` order, its transmit-side
    average on Fractions).  Enumerates every supply graph, uncapped,
    every partition from ``iter_colorings`` and every class-to-file
    bijection."""
    k = spec.file_count
    enumeration = gp.enumerate_nngs(spec, cap=gp.enumerate_nngs(spec).total)
    found: dict[tuple[int, ...], tuple[int, Fraction]] = {}
    for g_idx, nng in enumerate(enumeration.graphs):
        tx = gp.tx_latency_matrix(spec, nng).values
        for coloring in gp.iter_colorings(gp.build_extended_graph(nng), k):
            for perm in permutations(range(k)):
                files = [0] * spec.node_count
                for idx, members in enumerate(coloring.classes):
                    for s in members:
                        files[s] = perm[idx]
                if tuple(files) not in found:
                    found[tuple(files)] = (g_idx, sum(tx[s][j] for s, j in enumerate(files)))
    return found


def product_oracle(
    spec: gp.NetworkSpec, mode: str, witness_caps: Sequence[int]
) -> tuple[gp.OracleResult, ...]:
    """``brute_force_placement`` at each witness cap, without its budget
    or witness audit: every slot function in ``itertools.product``
    order whose sibling slots hold non-decreasing files (one per
    placement) is counted in ``search_space``, tested against every
    admissibility check and, if it passes, scored."""
    expanded = gp.expand_multifile(spec)
    work = expanded.network
    n = work.node_count
    k = work.file_count
    rtt_i, dem_i = work.rtt_scaled, work.demands_scaled
    # admissibility as checks on a placement's bits (file j is 1 << j):
    # (picker, combine, distinct files the picked nodes must hold); a sum
    # of bits keeps one bit per node only when no file repeats
    union = partial(reduce, or_)
    checks = []
    if mode == "admissible_only" and k > 1:
        for v in range(n):
            far = sorted(rtt_i[v][u] for u in range(n) if u != v)[k - 2]
            near = [u for u in range(n) if u == v or rtt_i[v][u] < far]
            within = [u for u in range(n) if rtt_i[v][u] <= far]
            if len(within) == k:
                checks.append((itemgetter(*within), sum, k))
                continue
            checks.append((itemgetter(*within), union, k))
            if len(near) > 1:
                checks.append((itemgetter(*near), sum, len(near)))
    order = [sorted(range(n), key=lambda u, v=v: (rtt_i[v][u], u)) for v in range(n)]
    follows = [s for g in expanded.groups for s in g[1:]]

    best = None
    optimal: list[tuple[int, ...]] = []
    scored = space = 0
    onehot = [1 << j for j in range(k)]
    for files, bits in zip(product(range(k), repeat=n), product(onehot, repeat=n)):
        if follows and any(files[s - 1] > files[s] for s in follows):
            continue  # another slot function of the same placement
        space += 1
        if any(combine(pick(bits)).bit_count() != count for pick, combine, count in checks):
            continue
        total = 0
        surjective = True
        for v in range(n):
            dist = [-1] * k
            left = k
            for u in order[v]:
                j = files[u]
                if dist[j] < 0:
                    dist[j] = rtt_i[v][u]
                    left -= 1
                    if left == 0:
                        break
            if left:
                surjective = False
                break
            total += sum(p * d for p, d in zip(dem_i[v], dist))
        if not surjective:
            continue
        scored += 1
        if best is None or total < best:
            best, optimal = total, [files]
        elif total == best:
            optimal.append(files)
    return tuple(
        gp.OracleResult(
            best_value=None if best is None else Fraction(best, work.cost_scale),
            witnesses=tuple(
                expanded.project_placement(gp.Placement.from_files(files))
                for files in optimal[:cap]
            ),
            search_space=space,
            scored=scored,
            mode=mode,
            witnesses_capped=len(optimal) > cap,
        )
        for cap in witness_caps
    )


def per_cell_scaled_rows(matrix) -> tuple[tuple[tuple[int, ...], ...], int]:
    """``scaled_rows`` by its definition: one ``to_ratio`` per cell in
    row-major order (a string row refused), the lcm of the denominators,
    one gcd reduction and the ``MAX_DIGITS`` bound over every cell."""
    ratios = []
    for row in matrix:
        if isinstance(row, str):
            raise TypeError("a matrix row must be a list, not a string")
        ratios.append(list(map(to_ratio, row)))
    scale = lcm(*{q for row in ratios for _, q in row})
    rows, scale = lowest_terms([[p * (scale // q) for p, q in row] for row in ratios], scale)
    if max(map(abs, chain((scale,), *rows))) >= _BOUND:
        raise gp.BudgetExceededError(f"a matrix needs numbers of more than {MAX_DIGITS} digits")
    return rows, scale


def fraction_decimal(value: Fraction) -> str:
    """``frac_decimal`` by its definition: round() of a Fraction rounds
    half to even."""
    f = Fraction(value)
    digits = str(round(abs(f) * 10**DECIMAL_PLACES)).rjust(DECIMAL_PLACES + 1, "0")
    return f"{'-' if f < 0 else ''}{digits[:-DECIMAL_PLACES]}.{digits[-DECIMAL_PLACES:]}"


def carry_less_mul(f, a: int, b: int) -> int:
    """a * b in the binary field ``f``: a carry-less multiply, reducing
    by ``f.modulus`` whenever a shift of ``a`` reaches degree m."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        if a & f.order:
            a ^= f.modulus
        b >>= 1
    return r


def carry_less_inv(f, a: int) -> int:
    """a^(q - 2), the inverse of a nonzero ``a`` in the binary field
    ``f``, by square-and-multiply over ``carry_less_mul``."""
    r, e = 1, f.order - 2
    while e:
        if e & 1:
            r = carry_less_mul(f, r, a)
        a = carry_less_mul(f, a, a)
        e >>= 1
    return r


def _rref(f, rows: list[list[int]]):
    """Reduced row echelon form in place; returns (pivot_columns, transform)
    with ``transform @ original == rref``."""
    k = len(rows)
    width = len(rows[0]) if k else 0
    transform = [[f.one if i == j else f.zero for j in range(k)] for i in range(k)]
    pivots: list[int] = []
    r = 0
    for col in range(width):
        pivot = next((i for i in range(r, k) if rows[i][col] != f.zero), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        transform[r], transform[pivot] = transform[pivot], transform[r]
        scale = f.inv(rows[r][col])
        rows[r] = [f.mul(scale, x) for x in rows[r]]
        transform[r] = [f.mul(scale, x) for x in transform[r]]
        for i in range(k):
            if i == r or rows[i][col] == f.zero:
                continue
            factor = rows[i][col]
            rows[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(rows[i], rows[r])]
            transform[i] = [
                f.sub(x, f.mul(factor, y)) for x, y in zip(transform[i], transform[r])
            ]
        pivots.append(col)
        r += 1
        if r == k:
            break
    return pivots, transform


def rref_matrix_rank(f, matrix) -> int:
    rows = [[f.coerce(x) for x in row] for row in matrix]
    if not rows:
        return 0
    pivots, _ = _rref(f, rows)
    return len(pivots)


def rref_solution_space(f, matrix):
    """``gf.solution_space``'s solutions, spread over all n entries, from
    the row reduction of a row-major matrix: x[pivot_i] is row i of the
    transform, so G x = e_j with every free variable zero."""
    rows = [[f.coerce(x) for x in row] for row in matrix]
    k = len(rows)
    n = len(rows[0]) if k else 0
    pivots, transform = _rref(f, rows)
    if len(pivots) < k:
        raise gp.InvalidInputError("generator matrix is rank deficient")
    particulars = []
    for j in range(k):
        x = [f.zero] * n
        for i, col in enumerate(pivots):
            x[col] = transform[i][j]
        particulars.append(tuple(x))
    return particulars


def matrix_rank(f, columns, k: int) -> int:
    """Rank of the k-row matrix whose columns of field elements are
    ``columns``: the columns ``gf._eliminate`` keeps."""
    return len(_eliminate(f, columns, k)[0])


def code_is_admissible(spec: gp.NetworkSpec, code: gp.LinearCode, nng: gp.NearestNeighborGraph) -> bool:
    """Whether every node can decode all files from its closed in-set
    alone (the stored symbols there span the full message space)."""
    f, columns = _code_matrix(spec, code)
    k = spec.file_count
    if spec.node_ids != nng.node_ids:
        raise gp.InvalidInputError("graph and network disagree on nodes")
    return all(
        matrix_rank(f, [columns[s] for s in closed_in(nng, v)], k) == k
        for v in range(spec.node_count)
    )


_UNIFORM = tuple(tuple(Fraction(1, 12) for _ in range(3)) for _ in range(4))


def example_instance_uniform() -> gp.NetworkSpec:
    """Same network as ``geoplan.example_instance`` with flat demands;
    every admissible placement then costs the same."""
    return gp.make_spec(("A", "B", "C", "D"), gp.example_instance().rtt, _UNIFORM, 3)


def infeasible_instance() -> gp.NetworkSpec:
    """Four nodes, three files, no admissible placement.

    The distances are tuned so the nodes' nearest-pair sets chain into
    a complete conflict graph on four nodes, which no three colors can
    break.  Distances still satisfy the triangle inequality, so this is
    a legitimate geometry, and a planner must prove infeasibility
    rather than error out.
    """
    rtt = (
        (0, 1, Fraction(21, 10), Fraction(7, 5)),
        (1, 0, Fraction(6, 5), Fraction(13, 10)),
        (Fraction(21, 10), Fraction(6, 5), 0, Fraction(3, 2)),
        (Fraction(7, 5), Fraction(13, 10), Fraction(3, 2), 0),
    )
    return gp.make_spec(("A", "B", "C", "D"), rtt, _UNIFORM, 3)
