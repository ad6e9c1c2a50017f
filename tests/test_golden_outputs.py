"""Rendered outputs pinned by digest.

A seeded family of small networks (k in {2, 3, 4}; RTT denominators 1,
3, 7 and 10 with exact ties; some multi-capacity nodes) runs through
every report the package renders: ``plan`` with and without the
assignment trace, ``verify_plan``, the oracle, ``eval_uncoded``,
``eval_linear_code`` and the capacity expansion.  The SHA-256 of the
concatenated JSON is frozen, so a change that only claims to be faster
has to keep every value, placement, tie-break and schema byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import geoplan as gp

F = Fraction

SPEC_COUNT = 40
RTT_DENOMINATORS = (1, 3, 7, 10)

GOLDEN_SHA256 = "445942129c871eb5ba55d0438b18426894717cde29202c462d53f5f5cfd95f15"


def golden_spec(rng: random.Random) -> gp.NetworkSpec:
    k = rng.choice((2, 3, 4))
    multi = rng.random() < 0.3
    while True:
        n = rng.randint(k, 7 if k < 4 else 6)
        caps = [rng.choice((1, 1, 2)) if multi else 1 for _ in range(n)]
        if k <= sum(caps) <= (7 if k < 4 else 6):
            break
    # few distinct numerators and shared denominators give exact ties,
    # including ones across denominators (2/6 against 1/3)
    rtt = [[F(0)] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            d = rng.choice(RTT_DENOMINATORS)
            rtt[u][v] = rtt[v][u] = F(rng.randint(1, 3 * d), d)
    weights = [[rng.randint(0, 6) for _ in range(k)] for _ in range(n)]
    weights[0][0] += 1
    total = sum(map(sum, weights))
    demands = [[F(w, total) for w in row] for row in weights]
    ids = [f"v{i}" for i in range(n)]
    return gp.make_spec(ids, rtt, demands, k, capacities=caps)


def systematic_code(rng: random.Random, n: int, k: int) -> gp.LinearCode:
    """Full rank by construction: an identity block, then random rows."""
    q = rng.choice((2, 3, 4, 5))
    rows = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    rows += [tuple(rng.randrange(q) for _ in range(k)) for _ in range(n - k)]
    rng.shuffle(rows)
    return gp.LinearCode(field_order=q, generator=tuple(rows))


def rendered_outputs(seed: int = 2024):
    """One JSON text per (spec, report), in a fixed order."""
    rng = random.Random(seed)
    for _ in range(SPEC_COUNT):
        spec = golden_spec(rng)
        gp.require_valid(spec)
        yield json.dumps(spec.to_dict())
        yield json.dumps(gp.expand_multifile(spec).network.to_dict())
        report = gp.plan(spec)
        yield json.dumps(report.to_dict())
        yield json.dumps(gp.plan(spec, gp.PlanOptions(with_trace=True)).to_dict())
        yield json.dumps(gp.verify_plan(spec, report).to_dict())
        oracle = gp.brute_force_placement(spec)
        yield json.dumps(oracle.to_dict())
        yield json.dumps([plc.files_by_node for plc in oracle.witnesses])
        slots = sum(spec.capacities)
        files = [s % spec.file_count for s in range(slots)]
        rng.shuffle(files)
        it = iter(files)
        placement = gp.Placement(
            tuple(tuple(next(it) for _ in range(c)) for c in spec.capacities)
        )
        yield json.dumps(gp.eval_uncoded(spec, placement).to_dict())
        work = gp.expand_multifile(spec).network
        for code in (gp.mds_code(slots, spec.file_count), systematic_code(rng, slots, spec.file_count)):
            latency, recovery = gp.eval_linear_code(work, code)
            yield json.dumps([latency.to_dict(), recovery.to_dict()])


def test_rendered_outputs_are_pinned():
    digest = hashlib.sha256()
    for text in rendered_outputs():
        digest.update(text.encode())
        digest.update(b"\n")
    assert digest.hexdigest() == GOLDEN_SHA256
