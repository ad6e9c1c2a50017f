"""Brute-force oracle and plan verdicts.

The oracle enumerates raw placement functions (file index per storage
slot) and scores each by the nearest-holder rule alone; it never
touches the planner's graph/coloring/assignment machinery, so
agreement between the two is meaningful evidence.  Admissibility is
tested per node, from the definition: some choice of the node's k-1
nearest peers (any of the peers tied at the (k-1)-th distance may
serve) must hold, together with the node, all k files.  Scoring runs
on the network's cached integer scale (``NetworkSpec.cost_scale``),
and every reported witness is re-scored by ``eval_uncoded`` before it
leaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import product
from operator import itemgetter, or_

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

    ``unrestricted`` scores every function from storage slots onto files
    that stores each file somewhere; ``admissible_only`` keeps only
    placements admissible for at least one valid supply graph: for
    every node v, v and its peers strictly nearer than its (k-1)-th
    nearest distance hold distinct files, and adding the peers at
    exactly that distance brings in every file.  Capacities
    are expanded to unit slots first and witnesses projected back.

    Raises when the k ** slot_count space exceeds ``budget``.
    """
    if mode not in MODES:
        raise InvalidInputError(f"unknown oracle mode {mode!r}")
    require_valid(spec)
    expanded = expand_multifile(spec)
    work = expanded.network
    n = work.node_count
    k = work.file_count
    space = k**n
    if space > budget:
        raise BudgetExceededError(
            f"{k}^{n} = {space} placements exceed the oracle budget of {budget}"
        )

    # score = integer total over cost_scale
    rtt_i, dem_i = work.rtt_scaled, work.demands_scaled
    # admissibility as checks on a placement's bits (file j is 1 << j):
    # (picker, combine, distinct files the picked nodes must hold); a sum
    # of bits keeps one bit per node only when no file repeats
    union = partial(reduce, or_)
    checks = []
    if mode == "admissible_only" and k > 1:
        for v in range(n):
            far = sorted(rtt_i[v][u] for u in range(n) if u != v)[k - 2]
            near = [u for u in range(n) if u == v or rtt_i[v][u] < far]
            within = [u for u in range(n) if rtt_i[v][u] <= far]
            if len(within) == k:  # k nodes holding all k files hold distinct ones
                checks.append((itemgetter(*within), sum, k))
                continue
            checks.append((itemgetter(*within), union, k))
            if len(near) > 1:
                checks.append((itemgetter(*near), sum, len(near)))
    # per node: all nodes by distance, nearest first, index as tie-break
    order = [
        sorted(range(n), key=lambda u, v=v: (rtt_i[v][u], u)) for v in range(n)
    ]

    best: int | None = None
    raw_witnesses: list[tuple[int, ...]] = []
    capped = False
    scored = 0

    onehot = [1 << j for j in range(k)]
    for files, bits in zip(product(range(k), repeat=n), product(onehot, repeat=n)):
        admissible = True
        for pick, combine, count in checks:
            if combine(pick(bits)).bit_count() != count:
                admissible = False
                break
        if not admissible:
            continue
        total = 0
        surjective = True
        for v in range(n):
            dist = [-1] * k
            left = k
            for u in order[v]:
                j = files[u]
                if dist[j] < 0:
                    dist[j] = rtt_i[v][u]
                    left -= 1
                    if left == 0:
                        break
            if left:
                surjective = False
                break
            row = dem_i[v]
            for j in range(k):
                total += row[j] * dist[j]
        if not surjective:
            continue
        scored += 1
        if best is None or total < best:
            best = total
            raw_witnesses = [files]
            capped = False
        elif total == best:
            if len(raw_witnesses) < witness_cap:
                raw_witnesses.append(files)
            else:
                capped = True

    if best is None:
        return OracleResult(
            best_value=None,
            witnesses=(),
            search_space=space,
            scored=scored,
            mode=mode,
            witnesses_capped=False,
        )

    best_value = Fraction(best, work.cost_scale)
    witnesses: list[Placement] = []
    seen = set()
    for files in raw_witnesses:
        # independent confirmation on the exact rational path
        report = eval_uncoded(work, files)
        if report.average != best_value:
            raise AuditError(f"witness scores {report.average}, search found {best_value}")
        projected = expanded.project_placement(Placement.from_files(files))
        if projected.files_by_node not in seen:
            seen.add(projected.files_by_node)
            witnesses.append(projected)
    return OracleResult(
        best_value=best_value,
        witnesses=tuple(witnesses),
        search_space=space,
        scored=scored,
        mode=mode,
        witnesses_capped=capped,
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
