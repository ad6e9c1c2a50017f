"""Latency evaluation for placements and linear storage codes.

Everything here minimizes over all of the network, with no graph in the
way: a fetch goes to the nearest node (or cheapest decodable node set)
that can produce the wanted file.  The planner's graph-restricted
search is validated against these direct evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInputError, InvalidSpecError
from .gf import cauchy_matrix, field, is_prime, matrix_rank, solution_space
from .model import NetworkSpec, Placement
from .nngraph import NearestNeighborGraph
from .rational import frac_decimal, frac_str


@dataclass(frozen=True)
class LatencyReport:
    """Fetch latencies of one storage configuration.

    ``latencies[v][j]`` is node v's latency for file j; ``worst_case``
    is the per-node max over files, ``wc_bounds`` the per-node floor no
    configuration can beat, ``average`` the demand-weighted mean.
    """

    node_ids: tuple[str, ...]
    file_count: int
    latencies: tuple[tuple[Fraction, ...], ...]
    worst_case: tuple[Fraction, ...]
    wc_bounds: tuple[Fraction, ...]
    average: Fraction

    def meets_bounds(self) -> bool:
        """True when every node's worst case sits exactly on its floor."""
        return self.worst_case == self.wc_bounds

    def to_dict(self) -> dict:
        return {
            "schema": "latency-report/1",
            "nodes": list(self.node_ids),
            "file_count": self.file_count,
            "latencies": [[frac_str(x) for x in row] for row in self.latencies],
            "worst_case": [frac_str(x) for x in self.worst_case],
            "worst_case_bounds": [frac_str(x) for x in self.wc_bounds],
            "average": frac_str(self.average),
            "average_decimal": frac_decimal(self.average),
        }


def wc_lower_bounds(spec: NetworkSpec) -> tuple[Fraction, ...]:
    """Per-node floor on worst-case fetch latency, cached on the spec
    (see ``NetworkSpec.wc_bounds``).  The bound binds any placement
    and any code."""
    return spec.wc_bounds


def _as_placement(spec: NetworkSpec, placement) -> Placement:
    plc = placement if isinstance(placement, Placement) else Placement.from_files(placement)
    if len(plc.files_by_node) != spec.node_count:
        raise InvalidInputError(
            f"placement covers {len(plc.files_by_node)} nodes, network has {spec.node_count}"
        )
    k = spec.file_count
    for v, files in enumerate(plc.files_by_node):
        if len(files) != spec.capacities[v]:
            raise InvalidInputError(
                f"node {spec.node_ids[v]} holds {len(files)} files, capacity is {spec.capacities[v]}"
            )
        for j in files:
            if not 0 <= j < k:
                raise InvalidInputError(f"file index {j} out of range")
    return plc


def eval_uncoded(spec: NetworkSpec, placement) -> LatencyReport:
    """Evaluate a replica placement by direct nearest-holder lookup.

    Works for any placement filling every node to capacity with every
    file held somewhere; no supply-graph restriction is applied.
    """
    plc = _as_placement(spec, placement)
    k = spec.file_count
    missing = set(range(k)) - set(plc.covered_files())
    if missing:
        raise InvalidInputError(f"no node holds file {min(missing)}")
    holders = [plc.holders(j) for j in range(k)]
    servers = [
        [min(holders[j], key=dist.__getitem__) for j in range(k)] for dist in spec.rtt_scaled
    ]
    return _finish_report(spec, servers)


def _finish_report(spec: NetworkSpec, servers) -> LatencyReport:
    """Report the fetches where ``servers[v][j]`` is the node whose
    distance sets node v's latency for file j.

    The average is one integer sum over ``spec.cost_scale``.
    """
    total = 0
    latencies = []
    worst = []
    for u_of, row, dist, weights in zip(
        servers, spec.rtt, spec.rtt_scaled, spec.demands_scaled
    ):
        total += sum(dist[u] * p for u, p in zip(u_of, weights))
        latencies.append(tuple(row[u] for u in u_of))
        worst.append(row[max(u_of, key=dist.__getitem__)])
    return LatencyReport(
        node_ids=spec.node_ids,
        file_count=spec.file_count,
        latencies=tuple(latencies),
        worst_case=tuple(worst),
        wc_bounds=spec.wc_bounds,
        average=Fraction(total, spec.cost_scale),
    )


# ---------------------------------------------------------------------------
# Linear codes


@dataclass(frozen=True)
class LinearCode:
    """Coded storage map over GF(q): node i keeps the single symbol
    sum_j generator[i][j] * file_j."""

    field_order: int
    generator: tuple[tuple[int, ...], ...]

    @property
    def node_count(self) -> int:
        return len(self.generator)

    @property
    def file_count(self) -> int:
        return len(self.generator[0]) if self.generator else 0

    def to_dict(self) -> dict:
        return {"q": self.field_order, "generator": [list(row) for row in self.generator]}

    @classmethod
    def from_dict(cls, data: dict) -> "LinearCode":
        try:
            q = data["q"]
            gen = tuple(tuple(int(x) for x in row) for row in data["generator"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"malformed code description: {exc}") from exc
        if not isinstance(q, int):
            raise InvalidInputError("field order q must be an integer")
        return cls(field_order=q, generator=gen)


@dataclass(frozen=True)
class RecoveryPlan:
    """Chosen decoding vector per (node, file): the coefficients each
    node applies to stored symbols across the network."""

    node_ids: tuple[str, ...]
    file_count: int
    vectors: tuple[tuple[tuple[int, ...], ...], ...]

    def to_dict(self) -> dict:
        return {
            "schema": "recovery-plan/1",
            "nodes": list(self.node_ids),
            "file_count": self.file_count,
            "vectors": [[list(x) for x in per_file] for per_file in self.vectors],
        }


def _code_matrix(spec: NetworkSpec, code: LinearCode):
    """Validate shape, coerce entries, return (field, k x n matrix)."""
    if not spec.is_unit_capacity:
        raise InvalidSpecError("coded storage assumes one symbol per node; expand first")
    n = spec.node_count
    k = spec.file_count
    if code.node_count != n:
        raise InvalidInputError(f"code has {code.node_count} rows, network has {n} nodes")
    if any(len(row) != k for row in code.generator):
        raise InvalidInputError(f"every generator row must have {k} entries")
    f = field(code.field_order)
    columns = [[f.coerce(code.generator[s][j]) for s in range(n)] for j in range(k)]
    return f, columns


def eval_linear_code(spec: NetworkSpec, code: LinearCode) -> tuple[LatencyReport, RecoveryPlan]:
    """Evaluate a linear storage code exactly, one linear solve per node.

    Node v's latency for file j is the smallest radius around v whose
    stored symbols decode j, i.e. whose generator columns span e_j
    (contacting itself is free).  The recovery vector is canonical:
    solve G x = e_j with the columns ordered by (RTT from v, node
    index) and free entries zero.  Row reduction then picks pivots in
    distance order, so the vector's farthest nonzero entry lies on
    exactly that smallest radius.
    """
    f, matrix = _code_matrix(spec, code)
    n = spec.node_count
    k = spec.file_count
    servers: list[list[int]] = []
    chosen: list[tuple[tuple[int, ...], ...]] = []
    for v in range(n):
        order = sorted(range(n), key=spec.rtt_scaled[v].__getitem__)
        particulars = solution_space(f, [[g[s] for s in order] for g in matrix])
        row = []
        picks = []
        for y in particulars:
            x = [f.zero] * n
            for s, c in zip(order, y):
                x[s] = c
            farthest = max(i for i, c in enumerate(y) if c)
            row.append(order[farthest])
            picks.append(tuple(x))
        servers.append(row)
        chosen.append(tuple(picks))
    report = _finish_report(spec, servers)
    plan = RecoveryPlan(node_ids=spec.node_ids, file_count=k, vectors=tuple(chosen))
    return report, plan


def code_is_admissible(spec: NetworkSpec, code: LinearCode, nng: NearestNeighborGraph) -> bool:
    """Whether every node can decode all files from its closed in-set
    alone (the stored symbols there span the full message space)."""
    f, matrix = _code_matrix(spec, code)
    k = spec.file_count
    if spec.node_ids != nng.node_ids:
        raise InvalidInputError("graph and network disagree on nodes")
    for v in range(spec.node_count):
        cols = nng.closed_in(v)
        sub = [[matrix[i][s] for s in cols] for i in range(k)]
        if matrix_rank(f, sub) < k:
            return False
    return True


def _smallest_field_order(minimum: int) -> int:
    q = max(2, minimum)
    while True:
        if is_prime(q):
            return q
        if q & (q - 1) == 0 and q.bit_length() - 1 <= 16:
            return q
        q += 1


def mds_code(node_count: int, file_count: int, field_order: int | None = None) -> LinearCode:
    """Cauchy-built code where any ``file_count`` nodes can decode everything.

    Such a code is admissible for every supply graph and puts each
    node's worst case exactly on its floor.  Any field with at least
    node_count + file_count elements works; by default the smallest
    supported order is used.
    """
    if file_count < 1 or node_count < file_count:
        raise InvalidInputError("need node_count >= file_count >= 1")
    if field_order is None:
        field_order = _smallest_field_order(node_count + file_count)
    f = field(field_order)
    if field_order < node_count + file_count:
        raise InvalidInputError(
            f"field order {field_order} too small: need at least {node_count + file_count}"
        )
    xs = [f.coerce(i) for i in range(node_count)]
    ys = [f.neg(f.coerce(node_count + j)) for j in range(file_count)]
    return LinearCode(field_order=field_order, generator=cauchy_matrix(f, xs, ys))
