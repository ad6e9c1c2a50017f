"""End-to-end placement planner.

Pipeline: validate, expand capacities to unit slots, build the
nearest-neighbor supply graph (all of them when RTT ties allow
several), and per supply graph either find a conflict clique of k+1
nodes, which proves it infeasible, or solve the minimum-cost proper
coloring of its conflict graph exactly by bucket elimination.  The
cheapest graph wins, ties going to the lowest graph index and then to
the lexicographically smallest file vector.  The winner's color
classes are then mapped to files by the k x k assignment (the matrix
method), which must reproduce the elimination's cost and files.

Every returned plan is double-checked against the direct evaluator: the
assignment-side average must equal the nearest-holder average, and each
node's worst case must sit on its floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .assignment import (
    FileMap,
    HungarianTrace,
    TxLatencyMatrix,
    color_cost_matrix,
    hungarian_min_assignment,
    tx_latency_matrix,
)
from .coloring import Coloring, conflict_clique, min_cost_coloring
# plan calls neither; bench/spans.py still times them under these names
from .coloring import find_coloring, iter_colorings  # noqa: F401
from .errors import AuditError
from .evaluation import LatencyReport, eval_uncoded
from .model import NetworkSpec, Placement, expand_multifile, require_valid
from .nngraph import NearestNeighborGraph, build_extended_graph, enumerate_nngs
from .rational import frac_decimal, frac_str


@dataclass(frozen=True)
class PlanOptions:
    nng_cap: int = 64
    coloring_limit: int = 10_000  # ignored: planning is exact; kept for existing callers
    strict: bool = False
    with_trace: bool = False


@dataclass(frozen=True)
class PlanStats:
    """What one plan searched.

    ``colorings`` counts the supply graphs with an optimal partition,
    ``assignments_solved`` is 1 when a plan is found, and
    ``assignments_pruned`` is ``colorings - assignments_solved``: the
    colorable graphs that lost.  ``truncated`` means ``nng_cap`` cut
    the supply graphs.
    """

    graphs: int
    colorings: int
    assignments_solved: int
    assignments_pruned: int
    truncated: bool

    def to_dict(self) -> dict:
        names = ("graphs", "colorings", "assignments_solved", "assignments_pruned")
        return {name: getattr(self, name) for name in names}


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
            "stats": self.stats.to_dict(),
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
            "stats": self.stats.to_dict(),
        }


def plan(spec: NetworkSpec, options: PlanOptions = PlanOptions()) -> PlanReport | InfeasiblePlan:
    """Find a minimum-average admissible placement, or prove there is none.

    Searches every supply graph (up to ``options.nng_cap`` when RTT ties
    produce several).  Infeasibility is reported with a clique
    certificate when one is found; the ``exhaustive`` flag records
    whether ``nng_cap`` cut the search.  Raises ``BudgetExceededError``
    when a supply graph needs a coloring table past ``MAX_TABLE_ROWS``.
    """
    require_valid(spec, strict=options.strict)
    expanded = expand_multifile(spec)
    work = expanded.network
    k = work.file_count

    enumeration = enumerate_nngs(work, cap=options.nng_cap)
    truncated = enumeration.truncated
    colorable = 0
    best: tuple[int, int, NearestNeighborGraph, TxLatencyMatrix, tuple[int, ...]] | None = None
    certificate: tuple[int, ...] | None = None

    for g_idx, nng in enumerate(enumeration.graphs):
        h = build_extended_graph(nng)
        clique = conflict_clique(h, k)
        if clique is not None:
            certificate = certificate or clique
            continue
        tx = tx_latency_matrix(work, nng)
        found = min_cost_coloring(h, tx.scaled)
        if found is None:
            continue
        colorable += 1
        # costs are integers over work.cost_scale; a tie keeps the lower graph index
        if best is None or found[0] < best[0]:
            best = (found[0], g_idx, nng, tx, found[1])

    solved = int(best is not None)
    stats = PlanStats(
        graphs=len(enumeration.graphs),
        colorings=colorable,
        assignments_solved=solved,
        assignments_pruned=colorable - solved,
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

    value, g_idx, nng, tx, files = best
    # the matrix method maps the winning partition's classes to files; on
    # a fixed partition its canonical bijection is the elimination's
    # lexicographically smallest file vector
    coloring = Coloring.from_files(files, k)
    file_map, trace = hungarian_min_assignment(
        color_cost_matrix(coloring, tx), with_trace=options.with_trace
    )
    by_class = tuple(files[members[0]] for members in coloring.classes)
    if file_map.cost != Fraction(value, work.cost_scale) or file_map.assignment != by_class:
        raise AuditError(
            f"matrix method gives {file_map.cost} by {file_map.assignment}, "
            f"elimination gives {Fraction(value, work.cost_scale)} by {by_class}"
        )
    expanded_placement = Placement.from_files(files)

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
