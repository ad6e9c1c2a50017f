"""Brute-force oracle and plan verdicts.

The oracle searches placement functions (file index per storage slot)
depth first, slot 0 first and files ascending, which is lexicographic
order, and scores each by the nearest-holder rule alone; it never
touches the planner's graph/coloring/assignment machinery, so
agreement between the two is meaningful evidence.  Admissibility is
tested per node, from the definition: some choice of the node's k-1
nearest peers (any of the peers tied at the (k-1)-th distance may
serve) must hold, together with the node, all k files.  The search
cuts a prefix as soon as it decides a condition: a slot repeats the
file of a slot it must differ from, or a set that must hold all k
files (a node with every peer within its (k-1)-th distance, or all
slots) misses more files than it has slots left.  Each slot keeps one
bit mask of the files it may still take under the current prefix,
built when the search reaches it, and takes its lowest bit first.

A placement says which files each node stores; a capacity-c node holds
c of them, repeats allowed, so it has comb(k + c - 1, c) choices and
the network their product, ``search_space``.  The node's sibling slots
are interchangeable (RTT 0 apart, equal rows), so the search keeps
them in non-decreasing file order and visits each placement once:
``scored`` counts the placements that pass every check, the witnesses
are the first ``witness_cap`` optimal ones in search order, and the
budget refuses on ``search_space``.  Scoring runs on the network's
integer scale (``NetworkSpec.cost_scale``), and each reported witness
is re-scored by ``eval_uncoded`` on the network as given before it
leaves.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

from .errors import AuditError, BudgetExceededError, InvalidInputError
from .evaluation import eval_uncoded
from .model import NetworkSpec, Placement, expand_multifile, require_valid
from .nngraph import enumerate_nngs  # noqa: F401  unused; bench/spans.py times it here
from .rational import frac_str

DEFAULT_ORACLE_BUDGET = 10_000_000
DEFAULT_WITNESS_CAP = 64

MODES = ("admissible_only", "unrestricted")


@dataclass(frozen=True)
class OracleResult:
    best_value: Fraction | None
    witnesses: tuple[Placement, ...]
    search_space: int
    scored: int
    mode: str
    witnesses_capped: bool

    def to_dict(self) -> dict:
        return {
            "schema": "oracle-result/1",
            "mode": self.mode,
            "best": frac_str(self.best_value) if self.best_value is not None else None,
            "witnesses": len(self.witnesses),
            "search_space": self.search_space,
            "scored": self.scored,
            "witnesses_capped": self.witnesses_capped,
        }


def brute_force_placement(
    spec: NetworkSpec,
    mode: str = "admissible_only",
    budget: int = DEFAULT_ORACLE_BUDGET,
    witness_cap: int = DEFAULT_WITNESS_CAP,
) -> OracleResult:
    """Exhaustive minimum over placements by direct scoring.

    ``unrestricted`` scores every placement that stores each file
    somewhere; ``admissible_only`` keeps only
    placements admissible for at least one valid supply graph: for
    every node v, v and its peers strictly nearer than its (k-1)-th
    nearest distance hold distinct files, and adding the peers at
    exactly that distance brings in every file.  Capacities
    are expanded to unit slots first and witnesses projected back.

    The search assigns slots 0, 1, ... in turn, files ascending, so
    placements come in lexicographic order; a prefix is cut as soon as
    it breaks a condition that no completion can repair, and a slot
    takes no file below its previous sibling's, so each placement is
    visited once.  ``scored`` counts the placements that pass; the
    witnesses are the first ``witness_cap`` (at least 0) optimal ones,
    and ``witnesses_capped`` says more exist.  Raises when
    ``search_space``, the product over nodes of comb(k + c - 1, c),
    exceeds ``budget``.
    """
    if mode not in MODES:
        raise InvalidInputError(f"unknown oracle mode {mode!r}")
    if witness_cap < 0:
        raise InvalidInputError(f"witness cap must be at least 0, got {witness_cap}")
    require_valid(spec)
    expanded = expand_multifile(spec)
    work = expanded.network
    n = work.node_count
    k = work.file_count
    space = prod(comb(k + c - 1, c) for c in spec.capacities)
    if space > budget:
        raise BudgetExceededError(f"{space} placements exceed the oracle budget of {budget}")

    rtt_i, dem_i = work.rtt_scaled, work.demands_scaled
    # per node: all nodes by distance, nearest first, index as tie-break
    # (the sort is stable); sorted here, not read from NetworkSpec.nearest,
    # so the oracle shares no order with the planner
    order = [sorted(range(n), key=row.__getitem__) for row in rtt_i]
    # per slot s: the earlier slots whose files s must differ from, and
    # for each cover s is in (a set that must hold all k files; all slots
    # form one) its earlier members and how many files they and s must
    # hold so that no more are missing than members are left
    differ: list[set[int]] = [set() for _ in range(n)]
    covers: set[tuple[int, ...]] = {tuple(range(n))}  # surjectivity
    if mode == "admissible_only" and k > 1:
        for v, (row, ranked) in enumerate(zip(rtt_i, order)):
            # ranked starts with v's own distance 0, so its k-th entry is
            # at v's (k-1)-th nearest peer distance; the slots nearer
            # than it (v alone when it is 0), and those within it, are
            # prefixes of ranked, taken in slot order
            far = row[ranked[k - 1]]
            near = sorted(ranked[: bisect_left(ranked, far, key=row.__getitem__)] or [v])
            within = sorted(ranked[: bisect_right(ranked, far, k - 1, key=row.__getitem__)])
            # k nodes holding all k files hold distinct ones
            distinct = within if len(within) == k else near
            for i, s in enumerate(distinct):
                differ[s].update(distinct[:i])
            if len(within) > k:
                covers.add(tuple(within))
    needs: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in range(n)]
    for cover in covers:
        for i, s in enumerate(cover):
            need = k - (len(cover) - 1 - i)
            if need > 1:
                needs[s].append((cover[:i], need))
    differs = [tuple(d) for d in differ]
    needed = [tuple(c) for c in needs]
    # each slot after the first of its node takes no file below its
    # previous sibling's
    follows = [False] * n
    for g in expanded.groups:
        for s in g[1:]:
            follows[s] = True
    # per node: (slot, distance) nearest first
    nearest = [[(u, row[u]) for u in ranked] for row, ranked in zip(rtt_i, order)]

    best: int | None = None
    kept: list[tuple[int, ...]] = []  # the first witness_cap + 1 optimal placements
    scored = 0

    every = (1 << k) - 1
    files = [0] * n
    held = [0] * n  # held[s] == 1 << files[s]
    # untried[s]: the files slot s may still take under files[:s], one bit
    # each, taken lowest first so files come in ascending order
    untried = [0] * n
    s = 0
    entered = True  # slot s was just reached from slot s - 1
    while s >= 0:
        if entered:
            taken = held[s - 1] - 1 if follows[s] else 0
            for t in differs[s]:
                taken |= held[t]
            for earlier, need in needed[s]:
                have = 0
                for t in earlier:
                    have |= held[t]
                short = need - have.bit_count()
                if short == 1:  # s must bring a file the cover lacks
                    taken |= have
                elif short > 1:
                    taken = every
                    break
            untried[s] = every & ~taken
        left = untried[s]
        if not left:
            s -= 1
            entered = False
            continue
        bit = left & -left
        untried[s] = left ^ bit
        held[s] = bit
        files[s] = bit.bit_length() - 1
        if s + 1 < n:
            s += 1
            entered = True
            continue
        entered = False

        # a leaf passed every check: score it, nearest holder per file
        total = 0
        for row, ranked in zip(dem_i, nearest):
            found = 0
            for u, d in ranked:
                bit = held[u]
                if not found & bit:
                    found |= bit
                    total += row[files[u]] * d
                    if found == every:
                        break
        scored += 1
        if best is None or total < best:
            best = total
            kept = [tuple(files)]
        elif total == best and len(kept) <= witness_cap:
            kept.append(tuple(files))

    best_value = None if best is None else Fraction(best, work.cost_scale)
    # sibling slots hold non-decreasing files, so each node's slots in
    # order are its multiset as projection sorts it
    witnesses = tuple(
        Placement(tuple(tuple(map(files.__getitem__, group)) for group in expanded.groups))
        for files in kept[:witness_cap]
    )
    for placement in witnesses:
        # independent confirmation on the exact rational path, on the
        # network as given, so the projection is checked too
        report = eval_uncoded(spec, placement)
        if report.average != best_value:
            raise AuditError(f"witness scores {report.average}, search found {best_value}")
    return OracleResult(
        best_value=best_value,
        witnesses=witnesses,
        search_space=space,
        scored=scored,
        mode=mode,
        witnesses_capped=len(kept) > witness_cap,
    )


@dataclass(frozen=True)
class Verdict:
    status: str  # "verified" | "refuted" | "unverified"
    message: str
    expected_value: Fraction | None = None
    counterexample: Placement | None = None

    def to_dict(self) -> dict:
        return {
            "schema": "verdict/1",
            "status": self.status,
            "message": self.message,
            "expected": frac_str(self.expected_value)
            if self.expected_value is not None
            else None,
        }


def verify_plan(
    spec: NetworkSpec,
    report,
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> Verdict:
    """Check a planner result against the independent oracle.

    Confirms the claimed average matches a re-evaluation of the
    placement, equals the admissible-only brute-force minimum, and
    meets every node's worst-case floor.  Oracle budget overruns give
    an ``unverified`` verdict rather than an error.
    """
    try:
        oracle = brute_force_placement(spec, mode="admissible_only", budget=budget)
    except BudgetExceededError as exc:
        return Verdict(status="unverified", message=str(exc))

    infeasible = not hasattr(report, "placement")
    if infeasible:
        if oracle.best_value is None:
            return Verdict(
                status="verified",
                message="oracle agrees no admissible placement exists",
            )
        return Verdict(
            status="refuted",
            message=f"oracle found an admissible placement with average {frac_str(oracle.best_value)}",
            expected_value=oracle.best_value,
            counterexample=oracle.witnesses[0] if oracle.witnesses else None,
        )

    actual = eval_uncoded(spec, report.placement)
    if actual.average != report.value:
        return Verdict(
            status="refuted",
            message=(
                f"claimed average {frac_str(report.value)} but the placement "
                f"evaluates to {frac_str(actual.average)}"
            ),
            expected_value=actual.average,
            counterexample=report.placement,
        )
    if oracle.best_value is None:
        return Verdict(
            status="refuted",
            message="oracle found no admissible placement, yet the report has one",
        )
    if report.value != oracle.best_value:
        return Verdict(
            status="refuted",
            message=(
                f"oracle minimum is {frac_str(oracle.best_value)}, "
                f"report claims {frac_str(report.value)}"
            ),
            expected_value=oracle.best_value,
            counterexample=oracle.witnesses[0] if oracle.witnesses else None,
        )
    if not actual.meets_bounds():
        return Verdict(
            status="refuted",
            message="placement misses a worst-case floor",
            expected_value=oracle.best_value,
            counterexample=report.placement,
        )
    return Verdict(
        status="verified",
        message=f"average {frac_str(report.value)} matches the oracle minimum",
        expected_value=oracle.best_value,
    )
