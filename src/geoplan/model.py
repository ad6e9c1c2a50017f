"""Storage network model, validation and the multi-capacity reduction.

A network is a set of named nodes joined by a symmetric round-trip-time
matrix with a zero diagonal.  Each node stores ``capacity`` symbols and
issues requests for ``file_count`` distinct files; ``demands[v][j]`` is
the probability that the next request system-wide originates at node v
and asks for file j, so the demand matrix sums to one over the whole
network, not per row.

Each distinct cell literal of a matrix is parsed once
(``rational.scaled_rows``: plain digits or digits/digits in a few bulk
passes over the whole matrix, any other literal by
``rational.to_ratio``), and each matrix is held once, as exact integers
over the least common multiple of its denominators, so equal networks
are equal specs; its ``Fraction`` view is built only when something
reports it.  A count that is already an int is taken as it is.
``load_spec`` keeps every JSON number the text it is written as, so
bare and quoted numbers read alike.

Nodes with capacity above one are reduced to unit-capacity sub-nodes:
the sub-nodes of one node sit at round-trip time zero from each other,
inherit cross-node times unchanged, and split their node's demand row
evenly across themselves.  Downstream planning and evaluation then only
ever deal with unit-capacity networks and project results back through
the provenance map.

Validation has two depths.  ``validate_spec`` runs every check,
including the O(n^3) triangle-inequality scan, whose breaches are
warnings unless ``strict``.  The planner, evaluator and oracle need only
the order of round-trip times, so non-strict ``require_valid`` (cached
as ``NetworkSpec.validation``) runs the O(n^2) structural checks alone:
node ids and capacities (an id the expansion would reuse included), the
RTT matrix's shape, diagonal, sign and symmetry, and the demand
matrix's shape, sign and sum.  The demand sign is one minimum over the
cells; its per-cell loop runs only to word a negative cell.

A spec computes what it derives once, on first use, and caches it on
the spec object: ``validation``, the capacity expansion, ``nearest``
(per node, every node in order of round-trip time, ties to the lower
index) and ``wc_floors`` (the worst-case floors on the RTT scale).  The
``Fraction`` views ``rtt`` and ``demands`` are cached the same way, for
reports.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain
from math import lcm
from operator import add
from typing import Iterable, Sequence

from .errors import BudgetExceededError, InvalidInputError, InvalidSpecError
from .rational import (
    MAX_DIGITS, _BOUND, frac_str, lowest_terms, scaled_rows, to_ratio, unscale_matrix,
)

#: Ingestion tolerance for the global demand mass check.
DEMAND_SUM_TOLERANCE = Fraction(1, 10**9)

#: Most unit slots a capacity expansion may create.  Its RTT matrix has
#: slots^2 cells, so one large capacity in a few bytes of input would
#: otherwise exhaust memory.
MAX_EXPANDED_SLOTS = 1024


@dataclass(frozen=True)
class NetworkSpec:
    """Immutable description of a storage network, built by ``make_spec``.

    ``rtt_scaled[u][v] / rtt_scale`` is the round-trip time from u to v
    and ``demands_scaled[v][j] / demand_scale`` node v's demand for file
    j; each scale is the lcm of its matrix's denominators.  Each
    (rows, scale) field pair is what ``rational.scaled_rows`` returns.
    """

    node_ids: tuple[str, ...]
    capacities: tuple[int, ...]
    rtt_scaled: tuple[tuple[int, ...], ...]
    rtt_scale: int
    demands_scaled: tuple[tuple[int, ...], ...]
    demand_scale: int
    file_count: int

    @property
    def node_count(self) -> int:
        return len(self.node_ids)

    @property
    def is_unit_capacity(self) -> bool:
        return all(c == 1 for c in self.capacities)

    @cached_property
    def rtt(self) -> tuple[tuple[Fraction, ...], ...]:
        """The round-trip times as Fractions, built on first use."""
        return unscale_matrix(self.rtt_scaled, self.rtt_scale)

    @cached_property
    def demands(self) -> tuple[tuple[Fraction, ...], ...]:
        """The demand matrix as Fractions, built on first use."""
        return unscale_matrix(self.demands_scaled, self.demand_scale)

    @property
    def cost_scale(self) -> int:
        """``rtt_scale * demand_scale``.

        ``rtt_scaled[u][v] * demands_scaled[v][j]`` is exactly RTT times
        demand times this scale, so every demand-weighted latency sum is
        an integer over it: costs and averages are summed and compared
        on those integers, and ``Fraction(total, cost_scale)`` is the
        exact value a report shows.
        """
        return self.rtt_scale * self.demand_scale

    @cached_property
    def nearest(self) -> tuple[tuple[int, ...], ...]:
        """Per node v, every node ordered by ``(rtt_scaled[v][u], u)``:
        nearest first, ties to the lower index.  v is among the first
        nodes at distance 0, not always the first.  Computed once per
        spec object; the supply graphs, the worst-case floors and both
        evaluators read it."""
        nodes = range(self.node_count)
        return tuple(tuple(sorted(nodes, key=row.__getitem__)) for row in self.rtt_scaled)

    @cached_property
    def wc_floors(self) -> tuple[int, ...]:
        """Per-node floor on worst-case fetch latency, on the RTT scale.

        A node keeps at most its capacity locally; the remaining files
        must be produced by other nodes, and a node at distance t can
        account for at most its own capacity of them.  Walking outward
        along ``nearest``, the floor is the distance at which the
        accumulated capacity first covers everything.  Ties in distance
        count with multiplicity.  The bound binds any placement and any
        code.  Computed once per spec object.
        """
        k = self.file_count
        floors = []
        for v, (order, dist) in enumerate(zip(self.nearest, self.rtt_scaled)):
            need = k - self.capacities[v]
            floor = 0
            for u in order:
                if need <= 0:
                    break
                if u != v:
                    need -= self.capacities[u]
                    floor = dist[u]
            if need > 0:
                raise InvalidSpecError("network cannot hold every file once")
            floors.append(floor)
        return tuple(floors)

    @cached_property
    def validation(self) -> ValidationResult:
        """``validate_spec(self)`` without the O(n^3) triangle scan: the
        node, RTT and demand checks, which are all that can make a spec
        invalid without ``strict``.  Computed once per spec object;
        non-strict ``require_valid`` reads it."""
        return ValidationResult((*_structure_checks(self), *_demand_checks(self)))

    @cached_property
    def _expansion(self) -> ExpandedSpec:
        """``expand_multifile(self)`` for a spec with a capacity above
        one, computed once per spec object."""
        return _split_capacities(self)

    def to_dict(self) -> dict:
        """Serializable form; exact values are rendered as strings."""
        return {
            "files": self.file_count,
            "nodes": [
                {
                    "id": self.node_ids[v],
                    "capacity": self.capacities[v],
                    "demands": [frac_str(p) for p in self.demands[v]],
                }
                for v in range(self.node_count)
            ],
            "rtt": [[frac_str(t) for t in row] for row in self.rtt],
        }


def make_spec(
    node_ids: Sequence[str],
    rtt: Sequence[Sequence],
    demands: Sequence[Sequence],
    file_count: int,
    capacities: Sequence[int] | None = None,
) -> NetworkSpec:
    """Build a NetworkSpec: matrix entries are read as exact rationals
    (see ``rational.scaled_rows``) and counts as ints
    (InvalidInputError for non-integral counts, BudgetExceededError for
    numbers past ``rational.MAX_DIGITS`` digits)."""
    ids = tuple(str(i) for i in node_ids)
    caps = (
        tuple(_count(c, "capacity") for c in capacities)
        if capacities is not None
        else (1,) * len(ids)
    )
    return NetworkSpec(
        ids, caps, *scaled_rows(rtt), *scaled_rows(demands), _count(file_count, "file count")
    )


def _count(value, what: str) -> int:
    """An integral count: an int or an integral rational such as 3.0,
    of at most ``MAX_DIGITS`` digits (BudgetExceededError past that).
    A plain int is taken as it is; anything else, a bool included, is
    read by ``to_ratio``."""
    count = value
    if type(value) is not int:
        try:
            count, rest = divmod(*to_ratio(value))
        except (TypeError, ValueError):
            rest = 1
        if rest:
            raise InvalidInputError(f"{what} must be an integer, got {value}")
    if abs(count) >= _BOUND:
        raise BudgetExceededError(f"{what} has more than {MAX_DIGITS} digits")
    return count


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str
    severity: str  # "error" | "warning"
    witness: tuple | None = None


@dataclass(frozen=True)
class ValidationResult:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not any(v.severity == "error" for v in self.violations)

    @property
    def errors(self) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if v.severity == "error")

    @property
    def warnings(self) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if v.severity == "warning")


def validate_spec(spec: NetworkSpec, strict: bool = False) -> ValidationResult:
    """Check a network description against every invariant, triangle
    inequality included.

    Round-trip-time triangle breaches are reported as warnings by
    default because measured wide-area RTTs routinely violate the
    triangle inequality; ``strict=True`` turns them into errors.  The
    violations come in a fixed order: node and RTT checks, triangle
    breaches, demand checks.
    """
    breaches = _triangle_breaches(spec, "error" if strict else "warning")
    return ValidationResult((*_structure_checks(spec), *breaches, *_demand_checks(spec)))


def require_valid(spec: NetworkSpec, strict: bool = False) -> ValidationResult:
    """Validate and raise InvalidSpecError on any error-grade violation.

    Non-strict, this returns the cached ``spec.validation``: the O(n^2)
    structural checks only.  Planning and evaluation need the order of
    round-trip times, not the triangle inequality, and a breach is only
    ever a warning there, so the O(n^3) triangle scan is left to
    ``validate_spec``.  ``strict=True`` runs ``validate_spec(spec,
    strict=True)`` afresh, so a breach refuses the spec.
    """
    result = validate_spec(spec, strict=True) if strict else spec.validation
    if not result.ok:
        lines = "; ".join(v.message for v in result.errors)
        raise InvalidSpecError(f"invalid network: {lines}", result)
    return result


def _rtt_is_square(spec: NetworkSpec) -> bool:
    n = spec.node_count
    return len(spec.rtt_scaled) == n and all(len(row) == n for row in spec.rtt_scaled)


def _structure_checks(spec: NetworkSpec) -> list[Violation]:
    """Node count, ids and capacities, then the RTT matrix's shape,
    diagonal, sign and symmetry."""
    out: list[Violation] = []
    n = spec.node_count
    k = spec.file_count

    def err(kind, message, witness=None):
        out.append(Violation(kind, message, "error", witness))

    if n == 0:
        err("node-count", "network has no nodes")
    if k < 1:
        err("file-count", f"file count must be at least 1, got {k}")
    if len(set(spec.node_ids)) != n:
        dupes = sorted({i for i in spec.node_ids if spec.node_ids.count(i) > 1})
        err("duplicate-id", f"duplicate node ids: {dupes}", tuple(dupes))
    for i, node_id in enumerate(spec.node_ids):
        if not node_id:
            err("node-id", f"node {i} has an empty id")

    if len(spec.capacities) != n:
        err("capacity", "capacity list length does not match node count")
    else:
        for v, cap in enumerate(spec.capacities):
            if cap < 1:
                err("capacity", f"node {spec.node_ids[v]} has capacity {cap} < 1", (v,))
        total_slots = sum(spec.capacities)
        if n and total_slots < k:
            err(
                "capacity",
                f"total storage {total_slots} cannot hold {k} distinct files",
            )
        for sub_id in _expansion_collisions(spec):
            err("expanded-id", f"expanded id {sub_id!r} collides with an existing node id")

    if not _rtt_is_square(spec):
        err("rtt-shape", f"rtt matrix must be {n}x{n}")
        return out
    rtt = spec.rtt_scaled
    for u in range(n):
        if rtt[u][u] != 0:
            err(
                "rtt-diagonal",
                f"rtt from {spec.node_ids[u]} to itself must be 0",
                (u,),
            )
        for v in range(u + 1, n):
            if rtt[u][v] < 0:
                err(
                    "rtt-negative",
                    f"negative rtt between {spec.node_ids[u]} and {spec.node_ids[v]}",
                    (u, v),
                )
            if rtt[u][v] != rtt[v][u]:
                err(
                    "rtt-asymmetric",
                    f"asymmetric rtt between {spec.node_ids[u]} and {spec.node_ids[v]}",
                    (u, v),
                )
    return out


def _triangle_breaches(spec: NetworkSpec, severity: str) -> list[Violation]:
    """Every (u, w, v) with u < v and rtt(u,v) > rtt(u,w) + rtt(w,v), in
    (u, v, w) order: the O(n^3) scan.  Empty for a non-square matrix."""
    if not _rtt_is_square(spec):
        return []
    out: list[Violation] = []
    n = spec.node_count
    rtt = spec.rtt_scaled
    columns = tuple(zip(*rtt))
    for u in range(n):
        ru = rtt[u]
        for v in range(u + 1, n):
            cv = columns[v]
            # at most every two-hop time (w = u and w = v included):
            # no breach, so skip the exact per-w scan
            if ru[v] <= min(map(add, ru, cv)):
                continue
            for w in range(n):
                if w in (u, v):
                    continue
                if ru[v] > ru[w] + cv[w]:
                    out.append(
                        Violation(
                            "triangle",
                            "triangle inequality breach: "
                            f"rtt({spec.node_ids[u]},{spec.node_ids[v]}) > "
                            f"rtt({spec.node_ids[u]},{spec.node_ids[w]}) + "
                            f"rtt({spec.node_ids[w]},{spec.node_ids[v]})",
                            severity,
                            (u, w, v),
                        )
                    )
    return out


def _demand_checks(spec: NetworkSpec) -> list[Violation]:
    """The demand matrix's shape, sign and total mass."""
    n = spec.node_count
    k = spec.file_count
    demands = spec.demands_scaled
    if not (len(demands) == n and all(len(row) == k for row in demands)):
        return [Violation("demand-shape", f"demand matrix must be {n}x{k}", "error")]
    out: list[Violation] = []
    # one C-level pass clears the usual matrix; the loop only words faults
    if min(chain.from_iterable(demands), default=0) < 0:
        for v in range(n):
            for j in range(k):
                if demands[v][j] < 0:
                    out.append(
                        Violation(
                            "demand-negative",
                            f"negative demand at node {spec.node_ids[v]}, file {j + 1}",
                            "error",
                            (v, j),
                        )
                    )
    if not out:
        total = Fraction(sum(map(sum, demands)), spec.demand_scale)
        if abs(total - 1) > DEMAND_SUM_TOLERANCE:
            out.append(
                Violation(
                    "demand-sum",
                    f"demand probabilities sum to {frac_str(total)}, expected 1",
                    "error",
                )
            )
    return out


# ---------------------------------------------------------------------------
# Placements


def require_int(value, what: str) -> int:
    """``value`` when it is an int and not a bool, else
    ``InvalidInputError`` naming it ``what``: never truncated or coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInputError(f"{what} {value!r} is not an integer")
    return value


@dataclass(frozen=True)
class Placement:
    """Files stored per node, one entry per storage slot (0-based files)."""

    files_by_node: tuple[tuple[int, ...], ...]

    @classmethod
    def from_files(cls, files: Iterable[int]) -> Placement:
        """Unit-capacity shorthand: one file per node.  Raises
        ``InvalidInputError`` on a file index that is not an int."""
        return cls(tuple((require_int(f, "file index"),) for f in files))

    def single(self, v: int) -> int:
        slots = self.files_by_node[v]
        if len(slots) != 1:
            raise InvalidInputError(f"node index {v} stores {len(slots)} files, expected 1")
        return slots[0]

    def as_single_files(self) -> tuple[int, ...]:
        return tuple(self.single(v) for v in range(len(self.files_by_node)))


# ---------------------------------------------------------------------------
# Multi-capacity reduction


@dataclass(frozen=True)
class ExpandedSpec:
    """Unit-capacity reduction of a network plus its provenance map.

    ``provenance[i]`` is ``(original_node_index, slot)`` for expanded
    node i, slots numbered from 1.  ``groups[v]`` lists the expanded
    node indices belonging to original node v, in slot order.
    """

    network: NetworkSpec
    provenance: tuple[tuple[int, int], ...]
    groups: tuple[tuple[int, ...], ...]

    def project_placement(self, placement: Placement) -> Placement:
        """Collapse a unit placement on the expansion to per-node multisets."""
        if len(placement.files_by_node) != self.network.node_count:
            raise InvalidInputError("placement does not match the expanded network")
        files: list[tuple[int, ...]] = []
        for group in self.groups:
            files.append(tuple(sorted(placement.single(i) for i in group)))
        return Placement(tuple(files))


def expand_multifile(spec: NetworkSpec) -> ExpandedSpec:
    """Split every capacity-M node into M unit-capacity sub-nodes.

    Sub-nodes of the same parent are at round-trip time zero from each
    other, keep cross-node times, and each carries 1/M of the parent's
    demand row.  Capacity-1 nodes keep their id; sub-node ids are
    formed as ``"<id>#<slot>"``.

    A unit-capacity network is its own expansion (``network is
    spec``); that assumes the zero diagonal every caller has already
    validated.  Its ``ExpandedSpec`` is built afresh on each call:
    cached on the spec, it would hold the spec in a reference cycle.
    Any other expansion is built once per spec object, and raises
    ``BudgetExceededError`` past ``MAX_EXPANDED_SLOTS`` slots.
    """
    n = spec.node_count
    if spec.is_unit_capacity:
        return ExpandedSpec(
            network=spec,
            provenance=tuple((v, 1) for v in range(n)),
            groups=tuple((v,) for v in range(n)),
        )
    return spec._expansion


def _expansion_collisions(spec: NetworkSpec) -> list[str]:
    """The node ids a capacity expansion would also give a slot: ``p#s``
    where node ``p`` has capacity ``c >= 2`` and ``s == str(i)`` for
    some ``1 <= i <= c``.  It reads the ids, not the slots, so a large
    capacity costs nothing."""
    caps = {node_id: cap for node_id, cap in zip(spec.node_ids, spec.capacities) if cap >= 2}
    out = []
    for node_id in spec.node_ids if caps else ():
        parent, sep, slot = node_id.rpartition("#")
        if sep and parent in caps and slot.isdecimal() and len(slot) <= MAX_DIGITS:
            if slot == str(int(slot)) and 1 <= int(slot) <= caps[parent]:
                out.append(node_id)
    return out


def _split_capacities(spec: NetworkSpec) -> ExpandedSpec:
    ids, caps = spec.node_ids, spec.capacities
    if sum(caps) > MAX_EXPANDED_SLOTS:
        raise BudgetExceededError(
            f"{sum(caps)} storage slots exceed the expansion budget of {MAX_EXPANDED_SLOTS}"
        )
    collisions = _expansion_collisions(spec)
    if collisions:
        raise InvalidSpecError(f"expanded id {collisions[0]!r} collides with an existing node id")
    provenance = tuple((v, slot) for v, cap in enumerate(caps) for slot in range(1, cap + 1))
    sub_ids = tuple(ids[v] if caps[v] == 1 else f"{ids[v]}#{slot}" for v, slot in provenance)
    groups = tuple(tuple(range(end - cap, end)) for cap, end in zip(caps, accumulate(caps)))
    owners = [v for v, _ in provenance]
    rtt = [tuple(0 if a == b else spec.rtt_scaled[a][b] for b in owners) for a in owners]
    # a slot of node v carries 1/capacity(v) of v's demand row: exact
    # integers over the demand scale times the lcm of the capacities
    split = lcm(*(caps[a] for a in owners))
    demands = [tuple(p * (split // caps[a]) for p in spec.demands_scaled[a]) for a in owners]
    network = NetworkSpec(
        sub_ids,
        (1,) * len(sub_ids),
        *lowest_terms(rtt, spec.rtt_scale),
        *lowest_terms(demands, spec.demand_scale * split),
        spec.file_count,
    )
    return ExpandedSpec(network=network, provenance=provenance, groups=groups)


# ---------------------------------------------------------------------------
# File formats


def spec_from_dict(data: dict) -> NetworkSpec:
    if not isinstance(data, dict):
        raise InvalidInputError("network file must contain a JSON object")
    try:
        file_count = data["files"]
        nodes = data["nodes"]
        node_ids = []
        capacities = []
        demands = []
        for entry in nodes:
            node_ids.append(str(entry["id"]))
            capacities.append(entry.get("capacity", 1))
            demands.append(entry.get("demands", []))
        return make_spec(node_ids, data["rtt"], demands, file_count, capacities)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed network file: {_field_fault(data) or exc}") from exc


def _field_fault(data: dict) -> str | None:
    """The first missing or mistyped field of a network dict that failed
    to load, or None when its fault is in a value.  Read only on failure,
    so a well-formed file pays nothing for it."""
    lists = (list, tuple)  # a JSON array, or a sequence built in process
    for key in ("files", "nodes", "rtt"):
        if key not in data:
            return f"missing field {key!r}"
    if not isinstance(data["nodes"], lists):
        return "field 'nodes' must be a list of node objects"
    for i, entry in enumerate(data["nodes"]):
        if not isinstance(entry, dict):
            return f"nodes[{i}] must be an object"
        if "id" not in entry:
            return f"nodes[{i}] has no field 'id'"
        if not isinstance(entry.get("demands", []), lists):
            return f"field 'demands' of nodes[{i}] must be a list"
    rtt = data["rtt"]
    if not (isinstance(rtt, lists) and all(isinstance(row, lists) for row in rtt)):
        return "field 'rtt' must be a list of rows"
    return None


def load_spec(
    path: str,
    rtt_csv: str | None = None,
    demands_csv: str | None = None,
) -> NetworkSpec:
    """Load a network from JSON, every number kept as the text it is
    written as, optionally overriding matrices from CSV."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh, parse_int=str, parse_float=str)
    spec = spec_from_dict(data)
    scaled = {}
    if rtt_csv is not None:
        scaled["rtt_scaled"], scaled["rtt_scale"] = scaled_rows(load_matrix_csv(rtt_csv))
    if demands_csv is not None:
        scaled["demands_scaled"], scaled["demand_scale"] = scaled_rows(load_matrix_csv(demands_csv))
    return replace(spec, **scaled) if scaled else spec


def load_matrix_csv(path: str) -> tuple[tuple[str, ...], ...]:
    """Read the raw cells of a headerless CSV matrix, skipping blank
    lines; ``scaled_rows`` parses them like JSON cells."""
    with open(path, newline="", encoding="utf-8") as fh:
        return tuple(tuple(record) for record in csv.reader(fh) if record)


def save_spec(spec: NetworkSpec, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec.to_dict(), fh, indent=2)
        fh.write("\n")
