"""Seeded input generators for the benchmark workloads.

Each generator turns a workload's parameters (from workloads.json) and
the run's seed into a pool of instances.  An instance is the JSON dict a
user would hand to the CLI, plus what the benchmark needs to check the
answer.  The seed moves geometry, demands and code entries; the
parameters fix each instance's shape (size, conflict components, search
space, code dimensions), so pools from different seeds ask for the same
amount of work and their timings can be compared.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from checks import Field, rank


@dataclass
class Instance:
    op: str  # "plan" | "verify" | "code"
    network: dict
    expect: str  # "placement" | "infeasible" | "any" | "decoded"
    code: dict | None = None
    tags: dict = field(default_factory=dict)


def _points(rng: random.Random, n: int, side: float, resolution: int) -> list:
    """n uniform points, no two closer than one RTT step."""
    pts: list = []
    while len(pts) < n:
        p = (rng.uniform(0, side), rng.uniform(0, side))
        if all(round(math.dist(p, q) * resolution) >= 1 for q in pts):
            pts.append(p)
    return pts


def _steps(points, resolution: int) -> list[list[int]]:
    """Plane distances in whole RTT steps."""
    return [[round(math.dist(a, b) * resolution) for b in points] for a in points]


def network_dict(rng, points, k, params, capacities=None) -> dict:
    """Plane-distance RTTs rounded to the resolution, random demands."""
    res = params["rtt_resolution"]
    lo, hi = params["demand_weights"]
    weights = [[rng.randint(lo, hi) for _ in range(k)] for _ in points]
    total = sum(map(sum, weights))
    return {
        "files": k,
        "nodes": [
            {
                "id": f"n{v}",
                "capacity": capacities[v] if capacities else 1,
                "demands": [str(Fraction(w, total)) for w in weights[v]],
            }
            for v in range(len(points))
        ],
        "rtt": [[str(Fraction(t, res)) for t in row] for row in _steps(points, res)],
    }


def supply_graph_count(steps, caps, k) -> int:
    """Number of nearest-neighbour supply graphs after splitting every
    node into unit slots (siblings at distance 0)."""
    owner = [v for v, cap in enumerate(caps) for _ in range(cap)]
    total = 1
    for a, va in enumerate(owner):
        dists = sorted(0 if va == vb else steps[va][vb] for b, vb in enumerate(owner) if b != a)
        threshold = dists[k - 2]
        forced = sum(d < threshold for d in dists)
        total *= comb(dists.count(threshold), k - 1 - forced)
    return total


def conflict_components(steps) -> int:
    """Connected components of the k = 2 conflict graph, which joins
    every node to its nearest peer (networks without nearest ties)."""
    n = len(steps)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for v in range(n):
        nearest = min((u for u in range(n) if u != v), key=lambda u: steps[v][u])
        parent[find(v)] = find(nearest)
    return len({find(v) for v in range(n)})


def plan_k2_geo(rng, params) -> list[Instance]:
    """Uniform points with a fixed number of conflict components per
    size (2^(c-1) colorings) and a single supply graph."""
    out = []
    res = params["rtt_resolution"]
    for _ in range(params["per_size"]):
        for n, c in zip(params["sizes"], params["components"]):
            while True:
                pts = _points(rng, n, params["side"], res)
                steps = _steps(pts, res)
                if supply_graph_count(steps, [1] * n, 2) == 1 and conflict_components(steps) == c:
                    break
            out.append(Instance("plan", network_dict(rng, pts, 2, params), "placement"))
    return out


def plan_k3_infeasible(rng, params) -> list[Instance]:
    """Random points plus one well-separated, perturbed square.

    Each square corner's two nearest peers are its neighbours on the
    square, so the four corners' closed peer sets overlap into a K4 in
    the conflict graph and no 3-coloring exists.
    """
    out = []
    side, res = params["side"], params["rtt_resolution"]
    s, jitter, clear = params["square_side"], params["square_jitter"], params["square_clearance"]
    for _ in range(params["per_size"]):
        for n in params["sizes"]:
            pts = _points(rng, n - 4, side, res)
            while True:
                c = (rng.uniform(clear, side - clear), rng.uniform(clear, side - clear))
                if all(math.dist(c, q) > clear for q in pts):
                    break
            square = [
                (c[0] + dx * s + rng.uniform(-jitter, jitter), c[1] + dy * s + rng.uniform(-jitter, jitter))
                for dx, dy in ((0, 0), (1, 0), (1, 1), (0, 1))
            ]
            pts += square
            rng.shuffle(pts)
            planted = [f"n{pts.index(p)}" for p in square]
            net = network_dict(rng, pts, 3, params)
            out.append(Instance("plan", net, "infeasible", tags={"square": planted}))
    return out


def verify_small(rng, params) -> list[Instance]:
    """Geometric, tie-heavy grid and multi-capacity networks.

    Node counts of geometric and grid networks cycle through ``nodes``.
    A multi-capacity network has the most slots that keep the oracle's
    search space k^slots within ``max_search_space``, spread over
    ``capacity_nodes[k]`` nodes of capacity one or two.  Every network
    has at most ``nng_cap`` supply graphs, so planner and oracle both
    search exhaustively; where ties make that rare, a network first
    loses spare slots, then nodes.
    """
    out = []
    res = params["rtt_resolution"]
    cells = [(x, y) for x in range(params["grid"]) for y in range(params["grid"])]
    for n in params["nodes"]:
        for k in params["files"]:
            for kind in ("geo", "grid", "capacity"):
                slots = int(math.log(params["max_search_space"], k) + 1e-9)
                size = min(n, slots)
                extra = 0
                if kind == "capacity":
                    size = params["capacity_nodes"][str(k)]
                    extra = min(size, slots - size)
                while True:
                    for _ in range(params["attempts"]):
                        if kind == "grid":
                            step = params["grid_step"]
                            pts = [(x * step, y * step) for x, y in rng.sample(cells, size)]
                        else:
                            pts = _points(rng, size, params["side"], res)
                        caps = [1] * size
                        for v in rng.sample(range(size), extra):
                            caps[v] = 2
                        if supply_graph_count(_steps(pts, res), caps, k) <= params["nng_cap"]:
                            break
                    else:
                        if extra > 1:
                            extra -= 1
                        elif size > k + 1:
                            size -= 1
                        else:
                            raise ValueError(f"no {kind} network for k={k} within nng_cap")
                        continue
                    break
                net = network_dict(rng, pts, k, params, caps)
                out.append(Instance("verify", net, "any"))
    return out


def _field_order_at_least(m: int) -> int:
    """Smallest prime or power of two (up to 2^16) of at least m."""
    q = max(2, m)
    while True:
        try:
            Field(q)
            return q
        except (ValueError, KeyError):
            q += 1


def _cauchy(rng, n, k) -> dict:
    """Cauchy generator 1/(x_i - a_j) on distinct random field points."""
    q = _field_order_at_least(n + k)
    f = Field(q)
    pts = rng.sample(range(q), n + k)
    xs, ys = pts[:n], pts[n:]
    return {"q": q, "generator": [[f.inv(f.sub(x, y)) for y in ys] for x in xs]}


def _random_code(rng, n, k, q) -> dict:
    f = Field(q)
    while True:
        gen = [[rng.randrange(q) for _ in range(k)] for _ in range(n)]
        columns = [[gen[s][j] for s in range(n)] for j in range(k)]
        if rank(f, columns) == k:
            return {"q": q, "generator": gen}


def code_eval(rng, params) -> list[Instance]:
    out = []
    for kind, n, k, q in params["codes"]:
        pts = _points(rng, n, params["side"], params["rtt_resolution"])
        net = network_dict(rng, pts, k, params)
        code = _cauchy(rng, n, k) if kind == "mds" else _random_code(rng, n, k, q)
        out.append(Instance("code", net, "decoded", code, tags={"mds": kind == "mds"}))
    return out


GENERATORS = {
    "plan-k2-geo": plan_k2_geo,
    "plan-k3-infeasible": plan_k3_infeasible,
    "verify-small": verify_small,
    "code-eval": code_eval,
}


def generate(workload: str, params: dict, seed: int) -> list[Instance]:
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng, params["generator"])
