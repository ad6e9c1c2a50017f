"""End-to-end placement planner.

Pipeline: validate, expand capacities to unit slots, then search every
supply graph at once.  For node v let thr_v be its (k-1)-th nearest
distance, F_v its suppliers strictly closer and T_v its peers at
exactly thr_v.  A placement is admissible for some supply graph exactly
when, for every v, v and F_v hold pairwise distinct files (conflict
cliques) and v, F_v and T_v together hold all k files (a cover, needed
only when v has more tied peers than slots).  On such a placement v's
latency is fixed by those sets, so the average is a sum of per-node
costs.  A conflict clique of k+1 nodes proves infeasibility; otherwise
one bucket elimination finds the minimum-cost coloring, ties going to
the lexicographically smallest file vector.  The winner's color
classes are then mapped to files by the k x k assignment (the matrix
method) on the first supply graph the winner is admissible for, which
must reproduce the elimination's cost and files.

Every returned plan is double-checked against the direct evaluator: the
assignment-side average must equal the nearest-holder average, and each
node's worst case must sit on its floor.  A multi-capacity plan is also
evaluated on the network as given, where its average must not move; a
unit-capacity network is its own expansion, so it is evaluated once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .assignment import (
    FileMap,
    HungarianTrace,
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
from .nngraph import (
    NearestNeighborGraph,
    build_extended_graph,
    count_supply_graphs,
    enumerate_nngs,  # noqa: F401  plan does not call it; bench/spans.py times it here
    first_supply_graph,
    supplier_tiers,
)
from .rational import frac_decimal, frac_str


@dataclass(frozen=True)
class PlanOptions:
    nng_cap: int = 64  # ignored: every supply graph is searched; kept for existing callers
    coloring_limit: int = 10_000  # ignored: planning is exact; kept for existing callers
    strict: bool = False
    with_trace: bool = False


@dataclass(frozen=True)
class PlanStats:
    """What one plan searched.

    ``graphs`` is the number of supply graphs, all of them covered by
    the one search; ``colorings`` and ``assignments_solved`` are 1 when
    a plan is found and 0 otherwise, and ``assignments_pruned`` is 0.
    """

    graphs: int
    colorings: int
    assignments_solved: int
    assignments_pruned: int

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
    trace: HungarianTrace | None = None
    exhaustive = True  # no budget cuts the search short

    def placement_pairs(self) -> list[tuple[str, int]]:
        """(node id, file) pairs, one per storage slot, in node order."""
        out = []
        for node_id, files in zip(self.latency.node_ids, self.placement.files_by_node):
            for j in files:
                out.append((node_id, j))
        return out

    def to_dict(self) -> dict:
        latency = self.latency.to_dict()
        # plan's audit makes the two equal, so the text is rendered once
        if self.value == self.latency.average:
            average = latency["average"], latency["average_decimal"]
        else:
            average = frac_str(self.value), frac_decimal(self.value)
        data = {
            "schema": "plan-report/1",
            "status": "ok",
            "average": average[0],
            "average_decimal": average[1],
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
            "latency": latency,
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
    """No admissible uncoded placement exists."""

    certificate_ids: tuple[str, ...] | None
    message: str
    stats: PlanStats
    exhaustive = True  # no budget cuts the search short

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

    One exact search covers every supply graph.  Infeasibility is
    reported with a clique certificate when the greedy search finds
    one.  Raises ``BudgetExceededError`` when the coloring needs a
    table past ``MAX_TABLE_ROWS`` or the supply-graph count has more
    than ``rational.MAX_DIGITS`` digits.
    """
    require_valid(spec, strict=options.strict)
    expanded = expand_multifile(spec)
    work = expanded.network
    k = work.file_count
    n = work.node_count

    tiers = supplier_tiers(work)
    graphs = count_supply_graphs(tiers)
    shared = NearestNeighborGraph(work.node_ids, tuple(t.shared for t in tiers))
    h = build_extended_graph(shared)
    clique = conflict_clique(h, k)
    found = None
    if clique is None:
        # node v pays its threshold for every file it does not hold, and a
        # forced supplier pays the (negative) gap for the file it serves v
        rtt, demands = work.rtt_scaled, work.demands_scaled
        costs = [[0] * k for _ in range(n)]
        for v, t in enumerate(tiers):
            row = demands[v]
            whole = sum(row)
            for j, d in enumerate(row):
                costs[v][j] += t.threshold * (whole - d)
                for s in t.forced:
                    costs[s][j] += (rtt[s][v] - t.threshold) * d
        covers = [(v, *t.forced, *t.tied) for v, t in enumerate(tiers) if t.picks < len(t.tied)]
        found = min_cost_coloring(h, costs, covers)

    solved = int(found is not None)
    stats = PlanStats(
        graphs=graphs, colorings=solved, assignments_solved=solved, assignments_pruned=0
    )
    if found is None:
        ids = clique and tuple(work.node_ids[v] for v in clique)
        msg = (
            f"nodes {', '.join(ids)} must all store different files but "
            f"form a conflict clique larger than {k}"
            if ids
            else "no admissible placement found"
        )
        return InfeasiblePlan(certificate_ids=ids, message=msg, stats=stats)

    value, files = found
    # audit on the first supply graph the winner is admissible for: the
    # matrix method maps the winning partition's classes to files from
    # sender-side costs, and on a fixed partition its canonical
    # bijection is the elimination's lexicographically smallest file vector
    g_idx, nng = first_supply_graph(work, tiers, files)
    tx = tx_latency_matrix(work, nng)
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

    if work is spec:  # unit capacities: the expansion is the identity
        placement, report = expanded_placement, work_report
    else:
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
        trace=trace,
    )
