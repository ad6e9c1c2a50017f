"""Latency evaluation for placements and linear storage codes.

Everything here minimizes over all of the network, with no graph in the
way: a fetch goes to the nearest node (or cheapest decodable node set)
that can produce the wanted file.  The planner's graph-restricted
search is validated against these direct evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd
from operator import mul

from .errors import InvalidInputError, InvalidSpecError
from .gf import cauchy_matrix, field, is_prime, solution_space
from .model import NetworkSpec, Placement, require_int
from .rational import frac_decimal, frac_str


@dataclass(frozen=True)
class LatencyReport:
    """Fetch latencies of one storage configuration, held as integers.

    ``fetch[v][j] / scale`` is node v's latency for file j and
    ``floors[v] / scale`` the per-node floor no configuration can beat
    (``NetworkSpec.wc_floors``), where ``scale`` is the network's
    ``rtt_scale``; ``average`` is the demand-weighted mean.  The audits
    compare the integers.  ``latencies``, ``worst_case`` (the per-node
    max over files) and ``wc_bounds`` are their ``Fraction`` views,
    built on first use; ``to_dict`` renders the integers without them.
    """

    node_ids: tuple[str, ...]
    file_count: int
    fetch: tuple[tuple[int, ...], ...]
    floors: tuple[int, ...]
    scale: int
    average: Fraction

    @cached_property
    def _exact(self) -> dict[int, Fraction]:
        """One Fraction per distinct reported integer."""
        values = {*chain.from_iterable(self.fetch), *self.floors}
        return {t: Fraction(t, self.scale) for t in values}

    @cached_property
    def latencies(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(map(self._exact.__getitem__, row)) for row in self.fetch)

    @cached_property
    def worst_case(self) -> tuple[Fraction, ...]:
        return tuple(self._exact[max(row)] for row in self.fetch)

    @cached_property
    def wc_bounds(self) -> tuple[Fraction, ...]:
        return tuple(map(self._exact.__getitem__, self.floors))

    def meets_bounds(self) -> bool:
        """True when every node's worst case sits exactly on its floor."""
        return tuple(map(max, self.fetch)) == self.floors

    def to_dict(self) -> dict:
        # each distinct integer t as the text of t / scale: one gcd, no Fraction
        scale = self.scale
        text = {}
        for t in {*chain.from_iterable(self.fetch), *self.floors}:
            g = gcd(t, scale)
            text[t] = f"{t // g}" if g == scale else f"{t // g}/{scale // g}"
        return {
            "schema": "latency-report/1",
            "nodes": list(self.node_ids),
            "file_count": self.file_count,
            "latencies": [list(map(text.__getitem__, row)) for row in self.fetch],
            "worst_case": [text[max(row)] for row in self.fetch],
            "worst_case_bounds": list(map(text.__getitem__, self.floors)),
            "average": frac_str(self.average),
            "average_decimal": frac_decimal(self.average),
        }


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
            if not 0 <= require_int(j, "file index") < k:
                raise InvalidInputError(f"file index {j} out of range")
    return plc


def eval_uncoded(spec: NetworkSpec, placement) -> LatencyReport:
    """Evaluate a replica placement by direct nearest-holder lookup.

    Works for any placement filling every node to capacity with every
    file held somewhere; no supply-graph restriction is applied.  Each
    node walks ``spec.nearest`` until every file has a holder, so a
    tie goes to the lower node index.
    """
    held = _as_placement(spec, placement).files_by_node
    k = spec.file_count
    fetch = []
    for order, dist in zip(spec.nearest, spec.rtt_scaled):
        row: list = [None] * k
        left = k
        for u in order:
            for j in held[u]:
                if row[j] is None:
                    row[j] = dist[u]
                    left -= 1
            if not left:
                break
        else:  # the whole network lacks a file
            missing = set(range(k)).difference(*held)
            raise InvalidInputError(f"no node holds file {min(missing)}")
        fetch.append(row)
    return _finish_report(spec, fetch)


def _finish_report(spec: NetworkSpec, fetch) -> LatencyReport:
    """Report the fetches where ``fetch[v][j]`` is node v's latency for
    file j on the RTT scale.  The average is one integer sum over
    ``spec.cost_scale``."""
    total = sum(map(mul, chain.from_iterable(fetch), chain.from_iterable(spec.demands_scaled)))
    return LatencyReport(
        node_ids=spec.node_ids,
        file_count=spec.file_count,
        fetch=tuple(map(tuple, fetch)),
        floors=spec.wc_floors,
        scale=spec.rtt_scale,
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
        """Read ``{"q": ..., "generator": [[...], ...]}``.  The entry types
        are checked in one pass; only when one is not exactly ``int``
        does the per-entry walk run, to name the first bad entry (or row
        that is not a list) in row-major order."""
        try:
            q = data["q"]
            gen = list(data["generator"])
            try:
                gen = tuple(map(tuple, gen))
                exact = {*map(type, chain.from_iterable(gen))} <= {int}
            except TypeError:  # a row that is not a list
                exact = False
            if not exact:
                gen = tuple(tuple(require_int(x, "generator entry") for x in row) for row in gen)
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"malformed code description: {exc}") from exc
        return cls(field_order=require_int(q, "field order q"), generator=gen)


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
    """Validate shape and return ``(field, columns)``: ``columns[s]`` is
    node s's generator row, coerced once (a binary-field entry outside
    the field is refused, a prime-field entry read as its residue)."""
    if not spec.is_unit_capacity:
        raise InvalidSpecError("coded storage assumes one symbol per node; expand first")
    n = spec.node_count
    k = spec.file_count
    if code.node_count != n:
        raise InvalidInputError(f"code has {code.node_count} rows, network has {n} nodes")
    if any(len(row) != k for row in code.generator):
        raise InvalidInputError(f"every generator row must have {k} entries")
    f = field(code.field_order)
    return f, [tuple(map(f.coerce, row)) for row in code.generator]


def eval_linear_code(spec: NetworkSpec, code: LinearCode) -> tuple[LatencyReport, RecoveryPlan]:
    """Evaluate a linear storage code exactly, one elimination per node.

    Node v's latency for file j is the smallest radius around v whose
    stored symbols decode j, i.e. whose generator columns span e_j
    (contacting itself is free).  The recovery vector is canonical:
    ``solution_space`` walks the nodes' columns in (RTT from v, node
    index) order, which is ``spec.nearest[v]``, keeps each column
    independent of those kept before it and stops at the k-th; the
    vector solves G x = e_j on the kept nodes with every other entry
    zero.  The kept columns are the first independent ones in distance
    order, so the fetch, the largest RTT over the vector's nonzero
    entries, is exactly that smallest radius.
    """
    f, columns = _code_matrix(spec, code)
    n = spec.node_count
    k = spec.file_count
    fetch: list[list[int]] = []
    chosen: list[tuple[tuple[int, ...], ...]] = []
    for order, dist in zip(spec.nearest, spec.rtt_scaled):
        kept, coefficients = solution_space(f, [columns[s] for s in order], k)
        nodes = [order[i] for i in kept]
        fetch.append([max(dist[s] for s, a in zip(nodes, y) if a) for y in coefficients])
        vectors = []
        for y in coefficients:
            x = [f.zero] * n
            for s, a in zip(nodes, y):
                x[s] = a
            vectors.append(tuple(x))
        chosen.append(tuple(vectors))
    report = _finish_report(spec, fetch)
    plan = RecoveryPlan(node_ids=spec.node_ids, file_count=k, vectors=tuple(chosen))
    return report, plan


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
