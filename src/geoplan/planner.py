"""End-to-end placement planner.

Pipeline: validate, expand capacities to unit slots, build the
nearest-neighbor supply graph (all of them when RTT ties allow
several), enumerate proper colorings of the conflict graph, and solve a
k x k assignment per coloring to map color classes to files.  The best
(graph, coloring, bijection) triple wins; ties break canonically by
graph index, then coloring key, then bijection, so runs are
reproducible.

Every returned plan is double-checked against the direct evaluator: the
assignment-side average must equal the nearest-holder average, and each
node's worst case must sit on its floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .assignment import (
    ColorCostMatrix,
    FileMap,
    HungarianTrace,
    color_cost_matrix,
    hungarian_min_assignment,
    tx_latency_matrix,
)
from .coloring import Coloring, Infeasible, find_coloring, iter_colorings
from .errors import AuditError, InvalidSpecError
from .evaluation import LatencyReport, eval_uncoded
from .model import ExpandedSpec, NetworkSpec, Placement, expand_multifile, require_valid
from .nngraph import NearestNeighborGraph, build_extended_graph, enumerate_nngs
from .rational import frac_decimal, frac_str


@dataclass(frozen=True)
class PlanOptions:
    nng_cap: int = 64
    coloring_limit: int = 10_000
    strict: bool = False
    with_trace: bool = False


@dataclass(frozen=True)
class PlanStats:
    graphs: int
    colorings: int
    assignments_solved: int
    assignments_pruned: int
    truncated: bool


@dataclass(frozen=True)
class PlanReport:
    """A winning placement with everything needed to audit it."""

    placement: Placement
    value: Fraction
    latency: LatencyReport
    graph_index: int
    graph: NearestNeighborGraph
    coloring: Coloring
    file_map: FileMap
    expanded_placement: Placement
    expanded_ids: tuple[str, ...]
    stats: PlanStats
    exhaustive: bool
    trace: HungarianTrace | None = None

    def placement_pairs(self) -> list[tuple[str, int]]:
        """(node id, file) pairs, one per storage slot, in node order."""
        out = []
        for node_id, files in zip(self.latency.node_ids, self.placement.files_by_node):
            for j in files:
                out.append((node_id, j))
        return out

    def to_dict(self) -> dict:
        data = {
            "schema": "plan-report/1",
            "status": "ok",
            "average": frac_str(self.value),
            "average_decimal": frac_decimal(self.value),
            "placement": [[node_id, j] for node_id, j in self.placement_pairs()],
            "graph_index": self.graph_index,
            "in_neighbors": {
                self.graph.node_ids[v]: [self.graph.node_ids[u] for u in ins]
                for v, ins in enumerate(self.graph.in_neighbors)
            },
            "coloring": [
                [self.expanded_ids[s] for s in members] for members in self.coloring.classes
            ],
            "file_map": list(self.file_map.assignment),
            "latency": self.latency.to_dict(),
            "stats": {
                "graphs": self.stats.graphs,
                "colorings": self.stats.colorings,
                "assignments_solved": self.stats.assignments_solved,
                "assignments_pruned": self.stats.assignments_pruned,
            },
            "exhaustive": self.exhaustive,
        }
        if self.expanded_ids != self.latency.node_ids:
            data["expanded_placement"] = [
                [self.expanded_ids[s], j]
                for s, j in enumerate(self.expanded_placement.as_single_files())
            ]
        if self.trace is not None:
            data["assignment_trace"] = self.trace.to_dict()
        return data


@dataclass(frozen=True)
class InfeasiblePlan:
    """No admissible uncoded placement exists (or none within budget)."""

    certificate_ids: tuple[str, ...] | None
    exhaustive: bool
    message: str
    stats: PlanStats

    def to_dict(self) -> dict:
        return {
            "schema": "plan-report/1",
            "status": "infeasible",
            "message": self.message,
            "certificate": list(self.certificate_ids) if self.certificate_ids else None,
            "exhaustive": self.exhaustive,
            "stats": {
                "graphs": self.stats.graphs,
                "colorings": self.stats.colorings,
                "assignments_solved": self.stats.assignments_solved,
                "assignments_pruned": self.stats.assignments_pruned,
            },
        }


def compose_placement(coloring: Coloring, file_map: FileMap, node_count: int) -> Placement:
    """Give every node the file its color class was assigned."""
    files = [-1] * node_count
    for theta, members in enumerate(coloring.classes):
        j = file_map.assignment[theta]
        for s in members:
            files[s] = j
    if any(j < 0 for j in files):
        raise InvalidSpecError("coloring does not cover every node")
    return Placement.from_files(files)


def plan(spec: NetworkSpec, options: PlanOptions = PlanOptions()) -> PlanReport | InfeasiblePlan:
    """Find a minimum-average admissible placement, or prove there is none.

    Searches every supply graph (up to ``options.nng_cap`` when RTT ties
    produce several) and every proper coloring with exactly k classes
    (up to ``options.coloring_limit`` per graph).  Infeasibility is
    reported with a clique certificate when one is found; the
    ``exhaustive`` flag records whether any budget truncated the search.
    """
    require_valid(spec, strict=options.strict)
    expanded = expand_multifile(spec)
    work = expanded.network
    k = work.file_count

    enumeration = enumerate_nngs(work, cap=options.nng_cap)
    truncated = enumeration.truncated
    colorings_seen = 0
    solved = 0
    pruned = 0

    # costs are compared as integers over work.cost_scale, shared by
    # every cost matrix of this plan
    best_value: int | None = None
    best_key: tuple | None = None
    best: tuple[int, NearestNeighborGraph, Coloring, ColorCostMatrix, FileMap] | None = None
    certificate: tuple[int, ...] | None = None

    for g_idx, nng in enumerate(enumeration.graphs):
        h = build_extended_graph(nng)
        tx = None  # built on the graph's first coloring only
        graph_count = 0
        for coloring in iter_colorings(h, k):
            graph_count += 1
            if graph_count > options.coloring_limit:
                truncated = True
                break
            colorings_seen += 1
            if tx is None:
                tx = tx_latency_matrix(work, nng)
            cost = color_cost_matrix(coloring, tx)
            floor = sum(map(min, zip(*cost.scaled)))
            if best_value is not None and floor > best_value:
                pruned += 1
                continue
            file_map, _ = hungarian_min_assignment(cost)
            solved += 1
            value = sum(row[j] for row, j in zip(cost.scaled, file_map.assignment))
            key = (g_idx, coloring.key(), file_map.assignment)
            if (
                best_value is None
                or value < best_value
                or (value == best_value and key < best_key)
            ):
                best_value = value
                best_key = key
                best = (g_idx, nng, coloring, cost, file_map)
        if tx is None and certificate is None:
            verdict = find_coloring(h, k)
            if isinstance(verdict, Infeasible) and verdict.certificate is not None:
                certificate = verdict.certificate

    stats = PlanStats(
        graphs=len(enumeration.graphs),
        colorings=colorings_seen,
        assignments_solved=solved,
        assignments_pruned=pruned,
        truncated=truncated,
    )

    if best is None:
        if certificate is not None:
            ids = tuple(work.node_ids[v] for v in certificate)
            msg = (
                f"nodes {', '.join(ids)} must all store different files but "
                f"form a conflict clique larger than {k}"
            )
            return InfeasiblePlan(
                certificate_ids=ids, exhaustive=not truncated, message=msg, stats=stats
            )
        return InfeasiblePlan(
            certificate_ids=None,
            exhaustive=not truncated,
            message="no admissible placement found"
            + ("" if not truncated else " within the enumeration budgets"),
            stats=stats,
        )

    g_idx, nng, coloring, cost, file_map = best
    trace = None
    if options.with_trace:
        _, trace = hungarian_min_assignment(cost, with_trace=True)

    expanded_placement = compose_placement(coloring, file_map, work.node_count)

    # audit: assignment-side optimum must match direct nearest-holder
    # evaluation exactly, and admissible plans must hit the per-node floor
    work_report = eval_uncoded(work, expanded_placement)
    if work_report.average != file_map.cost:
        raise AuditError(
            f"assignment cost {file_map.cost} != direct average {work_report.average}"
        )
    if not work_report.meets_bounds():
        raise AuditError("admissible placement misses a worst-case floor")

    placement = expanded.project_placement(expanded_placement)
    report = eval_uncoded(spec, placement)
    if report.average != work_report.average:
        raise AuditError(
            f"projected average {report.average} != expanded average {work_report.average}"
        )

    return PlanReport(
        placement=placement,
        value=file_map.cost,
        latency=report,
        graph_index=g_idx,
        graph=nng,
        coloring=coloring,
        file_map=file_map,
        expanded_placement=expanded_placement,
        expanded_ids=work.node_ids,
        stats=stats,
        exhaustive=not truncated,
        trace=trace,
    )
