"""Nearest-neighbor supply graphs and the derived conflict graph.

For a unit-capacity network with k files, each node should be able to
fetch every file it does not hold locally from one of its k-1 closest
peers.  The directed nearest-neighbor graph records, per node v, an
in-edge from each of the k-1 nodes with the smallest round-trip time to
v.  Ties in round-trip time make several such graphs valid.  They are
the per-node choices ``supplier_tiers`` describes, which it reads
straight from each node's RTT row: one plain sort for the threshold,
``bisect`` for how many peers are nearer or tied, and index scans for
which, so a plan builds no nearest-first order
(``NetworkSpec.nearest``) before its audit.  The planner works from
those choices directly; ``enumerate_nngs`` lists the graphs themselves
(for export), ``build_nng`` returns the first of them, and
``first_supply_graph`` the first that admits a given placement, in one
pass over the nodes with the files each node set holds kept as a bit
mask.  Every tie breaks toward the lower node index, as in ``export
--all-nngs`` order: ``tied`` peers are listed by index and their
combinations taken lexicographically.

The undirected extension joins every node to its chosen in-neighbors
and additionally joins those in-neighbors pairwise, which turns every
closed in-neighborhood into a k-clique.  A placement of single files on
nodes keeps every fetch inside the nearest-neighbor graph exactly when
it induces a proper k-coloring of this extension, which is what the
planner searches for.  ``build_extended_graph`` builds it as one
adjacency bit mask per node, OR-ing each closed in-neighborhood's mask
into its members' with no pair set and no sort; the ``ExtendedGraph``
it returns derives its sorted ``edges`` only when something reads them
(export, DOT rendering).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, islice, product
from math import comb, prod
from operator import xor
from typing import NamedTuple, Sequence

from .errors import BudgetExceededError, InvalidInputError, InvalidSpecError
from .model import NetworkSpec
from .rational import MAX_DIGITS, _BOUND, frac_str


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

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Directed (source, target) pairs, sorted."""
        return tuple(
            sorted((s, v) for v, sources in enumerate(self.in_neighbors) for s in sources)
        )


class ExtendedGraph:
    """Undirected conflict graph whose proper k-colorings are the
    placements that keep every fetch within the nearest-neighbor graph.

    ``adjacency_masks[v]`` holds v's neighbors as one bit mask, which
    the clique search and the elimination read; ``edges`` lists the
    (lower, higher) neighbor pairs in order.  A graph is given by one
    of the two and derives the other on first read:
    ``ExtendedGraph(node_ids, edges)`` from pairs in any order,
    ``build_extended_graph`` from masks, so a plan never builds pairs.
    """

    def __init__(
        self,
        node_ids: Sequence[str],
        edges: Sequence[tuple[int, int]] | None = None,
        *,
        adjacency_masks: Sequence[int] | None = None,
    ):
        if (edges is None) == (adjacency_masks is None):
            raise TypeError("an ExtendedGraph takes exactly one of edges and adjacency_masks")
        self.node_ids = tuple(node_ids)
        if edges is None:
            self.adjacency_masks = tuple(adjacency_masks)
        else:
            self.edges = tuple(edges)

    @property
    def node_count(self) -> int:
        return len(self.node_ids)

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Per node, its neighbors as one bit mask."""
        masks = [0] * self.node_count
        for a, b in self.edges:
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        return tuple(masks)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The (lower, higher) neighbor pairs, sorted."""
        out = []
        for a, mask in enumerate(self.adjacency_masks):
            above = mask >> (a + 1) << (a + 1)  # the neighbors above a
            while above:
                low = above & -above
                out.append((a, low.bit_length() - 1))
                above ^= low
        return tuple(out)


def _check_buildable(spec: NetworkSpec) -> None:
    if not spec.is_unit_capacity:
        raise InvalidSpecError("nearest-neighbor graphs need a unit-capacity network; expand first")
    if spec.file_count > spec.node_count:
        raise InvalidSpecError(
            f"{spec.file_count} files cannot be spread over {spec.node_count} unit nodes"
        )


def build_nng(spec: NetworkSpec) -> NearestNeighborGraph:
    """The first supply graph in ``enumerate_nngs`` order.

    Every node takes its forced suppliers plus the ``picks`` lowest-
    indexed peers tied at its threshold, so round-trip-time ties break
    toward the lower node index, as everywhere else in the package.
    """
    chosen = (tuple(sorted(t.forced + t.tied[: t.picks])) for t in supplier_tiers(spec))
    return NearestNeighborGraph(node_ids=spec.node_ids, in_neighbors=tuple(chosen))


class SupplierTier(NamedTuple):
    """Node v's candidate suppliers: ``threshold`` is the (k-1)-th
    smallest RTT to v on the integer scale, ``forced`` the peers
    strictly closer, ``tied`` the peers at exactly that distance, of
    which every supply graph takes ``picks``, and ``shared`` the
    suppliers every supply graph gives v, sorted: ``forced`` and
    ``tied`` together when every tied peer is taken, else ``forced``."""

    threshold: int
    forced: tuple[int, ...]
    tied: tuple[int, ...]
    picks: int
    shared: tuple[int, ...]


def supplier_tiers(spec: NetworkSpec) -> tuple[SupplierTier, ...]:
    """Per node, the forced and tied suppliers every supply graph is built from.

    Node v's tier is read from its row ``rtt_scaled[v]`` alone: the
    threshold from one plain sort of the row, the counts of peers
    strictly nearer and tied from ``bisect`` on those sorted distances,
    and each such peer's index from a ``row.index`` scan, so ties go to
    the lower index and no nearest-first order is built.  Every spec
    ``require_valid`` accepts is symmetric, so rows and columns agree;
    on an unvalidated asymmetric matrix, v's suppliers are the peers
    nearest from v.  This assumes a zero diagonal and no negative RTT,
    so v's own zero is among the row's smallest distances.
    """
    _check_buildable(spec)
    need = spec.file_count - 1
    if not need:
        return (SupplierTier(0, (), (), 0, ()),) * spec.node_count
    tiers = []
    for v, row in enumerate(spec.rtt_scaled):
        dist = sorted(row)
        # v's own zero sorts first, so the (k-1)-th nearest peer is at dist[need]
        threshold = dist[need]
        start = bisect_left(dist, threshold, 0, need)
        # the tied run, by index: each scan starts past the peer before
        u = row.index(threshold)
        tied = [u]
        for _ in range(start + 1, bisect_right(dist, threshold, need + 1)):
            u = row.index(threshold, u + 1)
            tied.append(u)
        if not threshold:
            tied.remove(v)
        forced = ()
        if start > 1:  # peers other than v are strictly nearer
            forced = []
            u, prev = -1, None
            for d in dist[1:start]:  # dist[0] stands for v's own zero
                u = row.index(d, u + 1 if d == prev else 0)
                if u == v:
                    u = row.index(d, v + 1)
                forced.append(u)
                prev = d
            forced = tuple(sorted(forced))
        tied = tuple(tied)
        picks = need - len(forced)
        shared = tuple(sorted(forced + tied)) if picks == len(tied) else forced
        tiers.append(SupplierTier(threshold, forced, tied, picks, shared))
    return tuple(tiers)


def count_supply_graphs(tiers: Sequence[SupplierTier]) -> int:
    """How many supply graphs ``tiers`` allow: per node, the ways to
    pick its ``picks`` tied peers, multiplied.  Raises
    ``BudgetExceededError`` past ``MAX_DIGITS`` digits, which no report
    could print."""
    total = prod(comb(len(t.tied), t.picks) for t in tiers)
    if total >= _BOUND:
        raise BudgetExceededError(f"the supply-graph count has more than {MAX_DIGITS} digits")
    return total


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
    order (per-node choices lexicographic by index, the last node
    varying fastest).  ``cap`` bounds the number of returned graphs;
    ``total`` counts all valid ones (see ``count_supply_graphs``).
    """
    cap = max(cap, 0)
    tiers = supplier_tiers(spec)
    total = count_supply_graphs(tiers)
    # graph g picks choice at most g at every node, so the first cap + 1
    # graphs need only each node's first cap + 1 choices
    per_node_choices = [
        [
            tuple(sorted(t.forced + picked))
            for picked in islice(combinations(t.tied, t.picks), cap + 1)
        ]
        for t in tiers
    ]
    graphs = [
        NearestNeighborGraph(node_ids=spec.node_ids, in_neighbors=combo)
        for combo in islice(product(*per_node_choices), cap + 1)
    ]
    return NngEnumeration(graphs=tuple(graphs[:cap]), truncated=len(graphs) > cap, total=total)


def first_supply_graph(
    spec: NetworkSpec, tiers: Sequence[SupplierTier], files: Sequence[int]
) -> tuple[int, NearestNeighborGraph]:
    """The first graph in ``enumerate_nngs`` order that the single-file
    placement ``files`` is admissible for, with its index there.

    Each node takes the lowest tied holder of every file missing from
    itself and its forced suppliers, which is its first valid choice;
    the index is the mixed-radix position of those choices.  The files
    a node set holds are one bit mask, and a choice's rank is computed
    only where the tied run offers more than one.  Raises
    ``InvalidInputError`` when ``files`` does not give one file index
    in ``0..k-1`` per node, and when no supply graph admits ``files``.
    """
    k = spec.file_count
    if len(files) != spec.node_count:
        raise InvalidInputError(f"placement covers {len(files)} nodes, network has {spec.node_count}")
    for j in files:
        if not 0 <= j < k:
            raise InvalidInputError(f"file index {j} out of range")
    bit = [1 << j for j in files]
    full = (1 << k) - 1
    index = 0
    chosen = []
    for v, t in enumerate(tiers):
        held = bit[v]
        for s in t.forced:
            held |= bit[s]
        tied, picks = t.tied, t.picks
        if picks == 0 or picks == len(tied):
            # no choice: v, its forced suppliers and, when every tied
            # peer is taken, those peers are k nodes that must hold all k files
            if picks:
                for s in tied:
                    held |= bit[s]
            chosen.append(t.shared)
        elif held.bit_count() == len(t.forced) + 1:
            # v and its forced suppliers hold distinct files, so covering
            # all k takes exactly ``picks`` tied peers
            picked = []
            for pos, s in enumerate(tied):
                if not held & bit[s]:
                    held |= bit[s]
                    picked.append(pos)
            rank, prev = 0, -1  # lexicographic rank among combinations(tied, picks)
            for i, pos in enumerate(picked):
                rank += sum(comb(len(tied) - 1 - x, picks - 1 - i) for x in range(prev + 1, pos))
                prev = pos
            index = index * comb(len(tied), picks) + rank
            chosen.append(tuple(sorted(t.forced + tuple(tied[p] for p in picked))))
        else:  # v and its forced suppliers repeat a file
            held = 0
        if held != full:
            raise InvalidInputError(f"no supply graph admits the placement at {spec.node_ids[v]}")
    return index, NearestNeighborGraph(node_ids=spec.node_ids, in_neighbors=tuple(chosen))


def build_extended_graph(nng: NearestNeighborGraph) -> ExtendedGraph:
    """Undirected extension: node-to-supplier edges plus supplier cliques.

    Built as bit masks: the mask of every closed in-neighborhood (a
    node and its suppliers) is OR-ed into each member's, and each
    node's own bit is cleared at the end.
    """
    bit = [1 << v for v in range(nng.node_count)]
    masks = bit[:]
    for v, sources in enumerate(nng.in_neighbors):
        closed = bit[v]
        for s in sources:
            closed |= bit[s]
        for s in sources:
            masks[s] |= closed
        masks[v] |= closed
    return ExtendedGraph(nng.node_ids, adjacency_masks=tuple(map(xor, masks, bit)))


# ---------------------------------------------------------------------------
# DOT rendering


def nng_to_dot(nng: NearestNeighborGraph, spec: NetworkSpec) -> str:
    """Graphviz source for the directed graph, edges labeled with RTTs."""
    lines = ["digraph nearest_neighbors {"]
    for node_id in nng.node_ids:
        lines.append(f'  "{node_id}";')
    for s, v in nng.edges():
        label = frac_str(Fraction(spec.rtt_scaled[s][v], spec.rtt_scale))
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
