"""Transmit-latency costs and the color-to-file assignment solvers.

With every fetch kept inside the nearest-neighbor graph, the demand-
weighted average latency of a placement decomposes over senders: node s
holding file j contributes the round-trip times to every node it
supplies, weighted by those nodes' demand for j.  ``tx_latency_matrix``
builds these sender rows in one walk over the supply graph's in-edges:
each supplier s of node v adds rtt(s, v) times v's demand row into row
s.  Summing the sender contributions over a color class of the
conflict graph gives a k x k cost matrix over (class, file) pairs, and
picking the best file per class is a balanced assignment problem.

The solver is the classic matrix method (row reduction, zero matching,
minimum line cover, adjust by the smallest uncovered entry), which can
emit a step trace.  It breaks ties between optimal bijections
canonically: lexicographically smallest (class, file) mapping.  Both
matrices, per sender and per class, are one type, ``CostMatrix``:
exact integers over the network's ``cost_scale``.  A ``Fraction`` is
built only for a reported value (``FileMap.cost``, trace matrices and
adjustments, and the ``values`` view).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coloring import Coloring
from .errors import InvalidInputError, InvalidSpecError
from .model import NetworkSpec
from .nngraph import NearestNeighborGraph
from .rational import frac_str, scaled_rows, unscale_matrix


@dataclass(frozen=True)
class CostMatrix:
    """Exact costs as integers: entry (r, c) is ``scaled[r][c] / scale``.

    ``tx_latency_matrix`` returns one per (sender, file) and
    ``color_cost_matrix`` one per (class, file); ``values`` is the same
    matrix as Fractions.
    """

    scaled: tuple[tuple[int, ...], ...]
    scale: int

    @property
    def values(self) -> tuple[tuple[Fraction, ...], ...]:
        return unscale_matrix(self.scaled, self.scale)


@dataclass(frozen=True)
class FileMap:
    """Bijection class index -> file index with its total cost."""

    assignment: tuple[int, ...]
    cost: Fraction


@dataclass(frozen=True)
class TraceStep:
    kind: str  # "row_reduce" | "matching" | "cover" | "adjust"
    matrix: tuple[tuple[Fraction, ...], ...] | None = None
    size: int | None = None
    pairs: tuple[tuple[int, int], ...] | None = None
    rows: tuple[int, ...] | None = None
    cols: tuple[int, ...] | None = None
    delta: Fraction | None = None


@dataclass(frozen=True)
class HungarianTrace:
    steps: tuple[TraceStep, ...]

    def to_dict(self) -> dict:
        out = []
        for step in self.steps:
            entry: dict = {"kind": step.kind}
            if step.matrix is not None:
                entry["matrix"] = [[frac_str(x) for x in row] for row in step.matrix]
            if step.size is not None:
                entry["matching_size"] = step.size
            if step.pairs is not None:
                entry["pairs"] = [list(p) for p in step.pairs]
            if step.rows is not None:
                entry["covered_rows"] = list(step.rows)
            if step.cols is not None:
                entry["covered_columns"] = list(step.cols)
            if step.delta is not None:
                entry["delta"] = frac_str(step.delta)
            out.append(entry)
        return {"steps": out}


def tx_latency_matrix(spec: NetworkSpec, nng: NearestNeighborGraph) -> CostMatrix:
    """Sender-side cost of every (node, file) pairing.

    Args:
        spec: unit-capacity network.
        nng: supply graph determining who each node serves.

    Returns:
        Matrix whose (s, j) entry sums rtt(s, v) * demand(v, j) over the
        nodes v supplied by s (s itself included at zero distance), on
        the network's ``cost_scale``.  It is built from the in-edges:
        every supplier s of v adds rtt(s, v) times v's demand row into
        row s, so no out-neighbor lists are built.
    """
    if not spec.is_unit_capacity:
        raise InvalidSpecError("transmit costs need a unit-capacity network; expand first")
    if spec.node_ids != nng.node_ids:
        raise InvalidInputError("graph and network disagree on nodes")
    rtt = spec.rtt_scaled
    rows = [[0] * spec.file_count for _ in rtt]
    # walk the in-edges: each supplier s of v adds rtt(s, v) times v's demand row
    for v, (sources, wants) in enumerate(zip(nng.in_neighbors, spec.demands_scaled)):
        for s in sources:
            t = rtt[s][v]
            if t:
                row = rows[s]
                for j, d in enumerate(wants):
                    row[j] += t * d
    return CostMatrix(scaled=tuple(map(tuple, rows)), scale=spec.cost_scale)


def color_cost_matrix(coloring: Coloring, tx: CostMatrix) -> CostMatrix:
    """Aggregate sender costs over each color class.

    Column sums are preserved: every sender lands in exactly one class.
    """
    k = len(coloring.classes)
    width = len(tx.scaled[0]) if tx.scaled else 0
    if k != width:
        raise InvalidInputError(
            f"coloring has {k} classes but the network has {width} files"
        )
    rows = []
    for members in coloring.classes:
        senders = [tx.scaled[s] for s in members]
        rows.append(tuple(map(sum, zip(*senders))) if senders else (0,) * width)
    return CostMatrix(scaled=tuple(rows), scale=tx.scale)


# ---------------------------------------------------------------------------
# Solvers


def _as_rows(cost) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(integer rows, scale): the cost matrix is ``rows / scale`` exactly.

    A plain nested matrix is rescaled by the lcm of its denominators.
    """
    if isinstance(cost, CostMatrix):
        rows, scale = cost.scaled, cost.scale
    else:
        rows, scale = scaled_rows(cost)
    k = len(rows)
    if k == 0 or any(len(row) != k for row in rows):
        raise InvalidInputError("cost matrix must be square and non-empty")
    return rows, scale


def _kuhn_zero_matching(
    rows: list[list[int]], start: int = 0, used: frozenset[int] | set[int] = frozenset()
) -> tuple[list[int], int]:
    """Maximum matching on the zero entries of rows ``start`` onwards,
    avoiding the columns in ``used``; returns (col -> row, size)."""
    k = len(rows)
    match_col = [-1] * k

    def try_row(r: int, seen: set[int]) -> bool:
        for c in range(k):
            if rows[r][c] == 0 and c not in seen:
                seen.add(c)
                if match_col[c] == -1 or try_row(match_col[c], seen):
                    match_col[c] = r
                    return True
        return False

    size = 0
    for r in range(start, k):
        if try_row(r, set(used)):
            size += 1
    return match_col, size


def _line_cover(rows: list[list[int]], match_col: list[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Minimum cover of the zeros by rows and columns, via the standard
    alternating-reachability construction from a maximum matching."""
    k = len(rows)
    row_match = [-1] * k
    for c, r in enumerate(match_col):
        if r != -1:
            row_match[r] = c
    reach_rows = {r for r in range(k) if row_match[r] == -1}
    reach_cols: set[int] = set()
    frontier = sorted(reach_rows)
    while frontier:
        nxt = []
        for r in frontier:
            for c in range(k):
                if rows[r][c] == 0 and c not in reach_cols:
                    reach_cols.add(c)
                    owner = match_col[c]
                    if owner != -1 and owner not in reach_rows:
                        reach_rows.add(owner)
                        nxt.append(owner)
        frontier = nxt
    cover_rows = tuple(sorted(set(range(k)) - reach_rows))
    cover_cols = tuple(sorted(reach_cols))
    return cover_rows, cover_cols


def _lex_min_zero_assignment(rows) -> tuple[int, ...]:
    """Lexicographically smallest perfect matching on the zero entries.

    Every optimal bijection is tight against the final reduced matrix, so
    fixing columns greedily row by row (with a feasibility probe on the
    remainder) yields the canonical optimum.
    """
    k = len(rows)
    used: set[int] = set()
    out: list[int] = []
    for r in range(k):
        for c in range(k):
            if rows[r][c] != 0 or c in used:
                continue
            used.add(c)
            if _kuhn_zero_matching(rows, r + 1, used)[1] == k - 1 - r:
                out.append(c)
                break
            used.discard(c)
        else:
            raise AssertionError("tight subgraph lost its perfect matching")
    return tuple(out)


def hungarian_min_assignment(
    cost, with_trace: bool = False
) -> tuple[FileMap, HungarianTrace | None]:
    """Minimum-cost bijection by the matrix method.

    Negative entries are handled by the initial row reduction.  The
    plain row-reduce, match, cover, adjust cycle runs with no column
    reduction, so traces show every adjustment.

    Args:
        cost: square matrix (CostMatrix or nested sequences).
        with_trace: record matrices, covers and adjustment values.

    Returns:
        (FileMap, trace) where trace is None unless requested.
    """
    matrix, scale = _as_rows(cost)
    k = len(matrix)
    work = [list(row) for row in matrix]
    steps: list[TraceStep] = []

    def snapshot():
        return unscale_matrix(work, scale)

    for r in range(k):
        low = min(work[r])
        if low != 0:
            work[r] = [x - low for x in work[r]]
    if with_trace:
        steps.append(TraceStep(kind="row_reduce", matrix=snapshot()))

    while True:
        match_col, size = _kuhn_zero_matching(work)
        if with_trace:
            pairs = tuple(sorted((r, c) for c, r in enumerate(match_col) if r != -1))
            steps.append(TraceStep(kind="matching", size=size, pairs=pairs))
        if size == k:
            break
        cover_rows, cover_cols = _line_cover(work, match_col)
        open_rows = [r for r in range(k) if r not in cover_rows]
        open_cols = [c for c in range(k) if c not in cover_cols]
        delta = min(work[r][c] for r in open_rows for c in open_cols)
        for r in open_rows:
            work[r] = [x - delta for x in work[r]]
        for c in cover_cols:
            for r in range(k):
                work[r][c] += delta
        if with_trace:
            steps.append(TraceStep(kind="cover", rows=cover_rows, cols=cover_cols))
            steps.append(TraceStep(kind="adjust", delta=Fraction(delta, scale), matrix=snapshot()))

    assignment = _lex_min_zero_assignment(work)
    total = sum(matrix[r][assignment[r]] for r in range(k))
    trace = HungarianTrace(steps=tuple(steps)) if with_trace else None
    return FileMap(assignment=assignment, cost=Fraction(total, scale)), trace
