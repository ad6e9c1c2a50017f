"""Independent checks of geoplan's rendered reports.

Everything here reads the generated input dict and the JSON text a
command would print, and recomputes what it needs with its own exact
arithmetic: nearest-holder latencies, worst-case floors, conflict pairs
and finite-field decoding.  Nothing is imported from geoplan, so a bug
in the planner cannot hide itself by also living in the check.

Each check returns a list of problems; an empty list means the output
is correct.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

# GF(2^m) reduction polynomials, bit m set.  They fix how a code's
# integer entries name field elements, so they are part of the input
# format; the arithmetic below is written independently of geoplan.gf.
_BINARY_MODULUS = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}


class Network:
    """Exact view of a generated network dict."""

    def __init__(self, data: dict):
        self.k = int(data["files"])
        self.ids = [str(node["id"]) for node in data["nodes"]]
        self.caps = [int(node.get("capacity", 1)) for node in data["nodes"]]
        self.demands = [[Fraction(str(p)) for p in node["demands"]] for node in data["nodes"]]
        self.rtt = [[Fraction(str(t)) for t in row] for row in data["rtt"]]
        self.n = len(self.ids)

    def floors(self) -> list[Fraction]:
        """Per node, the distance at which peers' capacity first covers
        the files the node cannot hold itself."""
        out = []
        for v in range(self.n):
            need = self.k - self.caps[v]
            got = 0
            floor = Fraction(0)
            for dist, cap in sorted((self.rtt[v][u], self.caps[u]) for u in range(self.n) if u != v):
                if got >= need:
                    break
                got += cap
                floor = dist
            out.append(floor)
        return out

    def closed_sets(self) -> list[set[int]]:
        """Per node: itself and every peer no farther than its
        (k-1)-th nearest peer (all tied peers included)."""
        out = []
        for v in range(self.n):
            dists = sorted(self.rtt[v][u] for u in range(self.n) if u != v)
            reach = dists[self.k - 2] if self.k >= 2 else Fraction(-1)
            out.append({v} | {u for u in range(self.n) if u != v and self.rtt[v][u] <= reach})
        return out


def average(net: Network, latencies) -> Fraction:
    return sum(
        (net.demands[v][j] * latencies[v][j] for v in range(net.n) for j in range(net.k)),
        Fraction(0),
    )


def check_plan(net: Network, report: dict) -> list[str]:
    """A feasible plan: its placement, average and worst cases."""
    problems = []
    if report.get("status") != "ok":
        return [f"expected a placement, got status {report.get('status')!r}"]
    held: dict[str, list[int]] = {node_id: [] for node_id in net.ids}
    for node_id, j in report["placement"]:
        if node_id not in held or not 0 <= j < net.k:
            return [f"placement entry {[node_id, j]} is outside the network"]
        held[node_id].append(j)
    for v, node_id in enumerate(net.ids):
        if len(held[node_id]) != net.caps[v]:
            problems.append(f"{node_id} holds {len(held[node_id])} files, capacity {net.caps[v]}")
    holders = [[v for v, node_id in enumerate(net.ids) if j in held[node_id]] for j in range(net.k)]
    if not all(holders):
        return problems + ["some file is stored nowhere"]
    lat = [[min(net.rtt[v][s] for s in holders[j]) for j in range(net.k)] for v in range(net.n)]
    if average(net, lat) != Fraction(report["average"]):
        problems.append(
            f"reported average {report['average']} but the placement averages {average(net, lat)}"
        )
    for v, floor in enumerate(net.floors()):
        if max(lat[v]) != floor:
            problems.append(f"{net.ids[v]} worst case {max(lat[v])} is off its floor {floor}")
    return problems


#: outcome markers, not wrong answers: a refusal is a failed op; an
#: uncertified verdict that the planted clique confirms is a correct one
REFUSED = "refused by a budget"
UNCERTIFIED = "infeasible without a certificate"


def check_infeasible(net: Network, report: dict, planted: list[str]) -> list[str]:
    """An infeasibility proof: exhaustive, with a conflict clique of k+1
    nodes.  The program may omit the clique when its search misses one;
    the verdict then stands only if the ``planted`` clique confirms it."""
    if report.get("status") != "infeasible":
        return [f"expected an infeasibility proof, got status {report.get('status')!r}"]
    problems = []
    if report.get("exhaustive") is not True:
        problems.append("infeasibility is not proven exhaustively")
    cert = report.get("certificate")
    if not cert:
        bad = _clique_problems(net, planted)
        return problems + ([f"no certificate, and the planted clique fails: {bad}"] if bad else [UNCERTIFIED])
    return problems + _clique_problems(net, cert)


def _clique_problems(net: Network, cert: list[str]) -> list[str]:
    if len(set(cert)) != net.k + 1 or len(cert) != net.k + 1:
        return [f"certificate {cert} is not {net.k + 1} distinct nodes"]
    if not set(cert) <= set(net.ids):
        return [f"certificate {cert} names unknown nodes"]
    index = [net.ids.index(node_id) for node_id in cert]
    closed = net.closed_sets()
    return [
        f"{net.ids[a]} and {net.ids[b]} never share a closed peer set"
        for a, b in combinations(index, 2)
        if not any(a in c and b in c for c in closed)
    ]


def check_verdict(verdict: dict) -> list[str]:
    if verdict.get("status") != "verified":
        return [f"oracle verdict {verdict.get('status')!r}: {verdict.get('message')}"]
    return []


# ---------------------------------------------------------------------------
# Finite fields and codes


class Field:
    """GF(p) for prime p, or GF(2^m) under the polynomials above."""

    def __init__(self, q: int):
        self.q = q
        self.binary = q & (q - 1) == 0
        if self.binary:
            self.m = q.bit_length() - 1
            self.modulus = _BINARY_MODULUS[self.m]
        elif q < 2 or any(q % d == 0 for d in range(2, int(q**0.5) + 1)):
            raise ValueError(f"no field of order {q}")

    def add(self, a: int, b: int) -> int:
        return a ^ b if self.binary else (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        return a ^ b if self.binary else (a - b) % self.q

    def mul(self, a: int, b: int) -> int:
        if not self.binary:
            return a * b % self.q
        product = 0
        for bit in range(b.bit_length()):
            if b >> bit & 1:
                product ^= a << bit
        for bit in range(product.bit_length() - 1, self.m - 1, -1):
            if product >> bit & 1:
                product ^= self.modulus << (bit - self.m)
        return product

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        # a^(q-2) by repeated squaring; the multiplicative group has order q-1
        result, base, e = 1, a, self.q - 2
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result


def rank(f: Field, rows: list[list[int]]) -> int:
    rows = [list(r) for r in rows]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = f.inv(rows[r][col])
        rows[r] = [f.mul(scale, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def check_code(net: Network, code: dict, payload: dict, mds: bool) -> list[str]:
    """A code evaluation: every recovery vector decodes its file, its
    farthest contacted node sets the reported latency, the average
    follows, and an MDS code meets every floor."""
    f = Field(int(code["q"]))
    gen = code["generator"]
    vectors = payload["recovery"]["vectors"]
    lat = [[Fraction(x) for x in row] for row in payload["latencies"]]
    problems = []
    for v in range(net.n):
        for j in range(net.k):
            x = vectors[v][j]
            for i in range(net.k):
                acc = 0
                for s in range(net.n):
                    if x[s]:
                        acc = f.add(acc, f.mul(gen[s][i], x[s]))
                if acc != (1 if i == j else 0):
                    problems.append(f"recovery vector of {net.ids[v]} for file {j} does not decode it")
                    break
            support = [s for s in range(net.n) if x[s]]
            reach = max((net.rtt[v][s] for s in support), default=None)
            if reach != lat[v][j]:
                problems.append(
                    f"{net.ids[v]} file {j}: farthest contact {reach}, reported {lat[v][j]}"
                )
    if average(net, lat) != Fraction(payload["average"]):
        problems.append(f"reported average {payload['average']} is not the demand-weighted sum")
    if mds:
        for v, floor in enumerate(net.floors()):
            if max(lat[v]) != floor:
                problems.append(f"MDS code misses {net.ids[v]}'s floor {floor}")
    return problems
