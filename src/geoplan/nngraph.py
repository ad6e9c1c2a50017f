"""Nearest-neighbor supply graphs and the derived conflict graph.

For a unit-capacity network with k files, each node should be able to
fetch every file it does not hold locally from one of its k-1 closest
peers.  The directed nearest-neighbor graph records, per node v, an
in-edge from each of the k-1 nodes with the smallest round-trip time to
v.  Ties in round-trip time make several such graphs valid; they can be
enumerated exhaustively.

The undirected extension joins every node to its chosen in-neighbors
and additionally joins those in-neighbors pairwise, which turns every
closed in-neighborhood into a k-clique.  A placement of single files on
nodes keeps every fetch inside the nearest-neighbor graph exactly when
it induces a proper k-coloring of this extension, which is what the
planner searches for.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Sequence

from .errors import InvalidInputError, InvalidSpecError
from .model import NetworkSpec, Placement
from .rational import frac_str


@dataclass(frozen=True)
class NearestNeighborGraph:
    """Directed graph with the k-1 closest suppliers of every node.

    ``in_neighbors[v]`` is the sorted tuple of node indices whose edge
    points at v.  Node count and ids are carried for rendering.
    """

    node_ids: tuple[str, ...]
    in_neighbors: tuple[tuple[int, ...], ...]

    @property
    def node_count(self) -> int:
        return len(self.node_ids)

    @property
    def file_count(self) -> int:
        # every node has exactly k-1 in-neighbors
        return len(self.in_neighbors[0]) + 1 if self.in_neighbors else 1

    def closed_in(self, v: int) -> tuple[int, ...]:
        """The node itself plus its suppliers, sorted."""
        return tuple(sorted((v, *self.in_neighbors[v])))

    def out_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Per node s: sorted nodes served by s, including s itself."""
        out: list[list[int]] = [[s] for s in range(self.node_count)]
        for v, sources in enumerate(self.in_neighbors):
            for s in sources:
                out[s].append(v)
        return tuple(tuple(sorted(o)) for o in out)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Directed (source, target) pairs, sorted."""
        return tuple(
            sorted((s, v) for v, sources in enumerate(self.in_neighbors) for s in sources)
        )


@dataclass(frozen=True)
class ExtendedGraph:
    """Undirected conflict graph whose proper k-colorings are the
    placements that keep every fetch within the nearest-neighbor graph."""

    node_ids: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def node_count(self) -> int:
        return len(self.node_ids)

    def adjacency_masks(self) -> tuple[int, ...]:
        masks = [0] * self.node_count
        for a, b in self.edges:
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        return tuple(masks)


def _check_buildable(spec: NetworkSpec) -> None:
    if not spec.is_unit_capacity:
        raise InvalidSpecError("nearest-neighbor graphs need a unit-capacity network; expand first")
    if spec.file_count > spec.node_count:
        raise InvalidSpecError(
            f"{spec.file_count} files cannot be spread over {spec.node_count} unit nodes"
        )


def build_nng(
    spec: NetworkSpec,
    tie_break: Callable[[str], object] | None = None,
) -> NearestNeighborGraph:
    """Build one nearest-neighbor graph, resolving ties deterministically.

    Args:
        spec: unit-capacity network.
        tie_break: sort key on node ids applied among equal round-trip
            times; defaults to lexicographic node id order.

    Returns:
        The graph whose in-edges to each node come from its k-1 closest
        peers under the tie rule.
    """
    _check_buildable(spec)
    key = tie_break or (lambda node_id: node_id)
    k = spec.file_count
    rtt = spec.rtt_scaled
    chosen: list[tuple[int, ...]] = []
    for v in range(spec.node_count):
        order = sorted(
            (s for s in range(spec.node_count) if s != v),
            key=lambda s: (rtt[s][v], key(spec.node_ids[s])),
        )
        chosen.append(tuple(sorted(order[: k - 1])))
    return NearestNeighborGraph(node_ids=spec.node_ids, in_neighbors=tuple(chosen))


@dataclass(frozen=True)
class NngEnumeration:
    graphs: tuple[NearestNeighborGraph, ...]
    truncated: bool
    total: int


def enumerate_nngs(spec: NetworkSpec, cap: int = 64) -> NngEnumeration:
    """All valid nearest-neighbor graphs under round-trip-time ties.

    Per node, the suppliers strictly closer than the (k-1)-th distance
    are forced; the remaining slots are filled by every combination of
    the peers tied at that distance.  Graphs are emitted in a canonical
    order (per-node choices lexicographic by index).  ``cap`` bounds the
    number of returned graphs; ``total`` counts all valid ones.
    """
    _check_buildable(spec)
    k = spec.file_count
    need = k - 1
    columns = tuple(zip(*spec.rtt_scaled))
    per_node_choices: list[list[tuple[int, ...]]] = []
    total = 1
    for v in range(spec.node_count):
        if need == 0:
            per_node_choices.append([()])
            continue
        column = columns[v]
        others = [s for s in range(spec.node_count) if s != v]
        threshold = sorted(column[s] for s in others)[need - 1]
        forced = [s for s in others if column[s] < threshold]
        tier = [s for s in others if column[s] == threshold]
        choices = [
            tuple(sorted(forced + list(picked)))
            for picked in combinations(tier, need - len(forced))
        ]
        total *= len(choices)
        per_node_choices.append(choices)

    graphs: list[NearestNeighborGraph] = []
    truncated = False
    for combo in product(*per_node_choices):
        if len(graphs) >= cap:
            truncated = True
            break
        graphs.append(NearestNeighborGraph(node_ids=spec.node_ids, in_neighbors=combo))
    return NngEnumeration(graphs=tuple(graphs), truncated=truncated, total=total)


def build_extended_graph(nng: NearestNeighborGraph) -> ExtendedGraph:
    """Undirected extension: node-to-supplier edges plus supplier cliques."""
    edges: set[tuple[int, int]] = set()

    def add(a: int, b: int) -> None:
        if a != b:
            edges.add((min(a, b), max(a, b)))

    for v, sources in enumerate(nng.in_neighbors):
        for s in sources:
            add(v, s)
        for a, b in combinations(sources, 2):
            add(a, b)
    return ExtendedGraph(node_ids=nng.node_ids, edges=tuple(sorted(edges)))


def is_admissible(placement: Placement | Sequence[int], nng: NearestNeighborGraph) -> bool:
    """Whether a single-file-per-node placement serves every node from
    within its closed in-neighborhood.

    True exactly when the files stored across each closed in-neighborhood
    are pairwise distinct, which makes them all k files.
    """
    if isinstance(placement, Placement):
        files = placement.as_single_files()
    else:
        files = tuple(int(f) for f in placement)
    if len(files) != nng.node_count:
        raise InvalidInputError("placement length does not match the graph")
    k = nng.file_count
    for v in range(nng.node_count):
        seen = 0
        for s in nng.closed_in(v):
            seen |= 1 << files[s]
        if seen.bit_count() != k:
            return False
    return True


# ---------------------------------------------------------------------------
# DOT rendering


def nng_to_dot(nng: NearestNeighborGraph, spec: NetworkSpec) -> str:
    """Graphviz source for the directed graph, edges labeled with RTTs."""
    lines = ["digraph nearest_neighbors {"]
    for node_id in nng.node_ids:
        lines.append(f'  "{node_id}";')
    for s, v in nng.edges():
        label = frac_str(spec.rtt[s][v])
        lines.append(f'  "{nng.node_ids[s]}" -> "{nng.node_ids[v]}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def extended_to_dot(h: ExtendedGraph) -> str:
    """Graphviz source for the undirected conflict graph."""
    lines = ["graph extended_conflicts {"]
    for node_id in h.node_ids:
        lines.append(f'  "{node_id}";')
    for a, b in h.edges:
        lines.append(f'  "{h.node_ids[a]}" -- "{h.node_ids[b]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
