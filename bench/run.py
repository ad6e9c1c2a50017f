"""geoplan benchmark: seeded solve workloads, timed from outside the package.

Usage, from the repository root:

    python3 bench/run.py --workload plan-k2-geo --seed 1 --seconds 25 --trace 0

One process, one thread, one caller in a closed loop: each op starts
when the previous one returns.  An op mirrors one CLI command without
disk I/O: ``spec_from_dict`` on the generated dict, the command's API
calls, then the report's ``to_dict()`` and ``json.dumps``.  Every
rendered output is checked by checks.py, which shares no code with
geoplan.  An infeasibility verdict without a certificate (the program
gives one only when its clique search finds it) is a correct answer when
the planted clique confirms it; such verdicts are counted as uncertified.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each op
untraced and then traced, and prints per-layer metrics for one pass of
the pool (see spans.py).  The last line of stdout is the JSON result;
the line before it states the tail percentile, the failures by class
(raised, refused, wrong), the uncertified verdicts, failed_ratio,
unproven_ratio and the mean exact average latency in RTT units.

Timings are given at the reference host speed.  A shared host runs the
same code up to 1.8 times slower, for seconds or minutes at a time, so
the run times a fixed pure-Python reference loop (``reference``) after
every op and after every set-up probe, and scales each op or probe by
REFERENCE_NS over the median of the reference times measured around it.
The unscaled figures and the median scale are printed on the line
before the JSON.

End-to-end metrics (workload parameters are in workloads.json):
  setup_s          median of fresh interpreters that import geoplan and
                   generate the inputs
  ops_per_s        answered instances per second of their median ops
  op_p50_ms        median over instances of the instance's median op
  op_tail_ms       highest ladder percentile with ten instances beyond it
  answered_ratio   instances whose every op passed its check (1 - failures)
  proven_ratio     answered instances the program marks exhaustive
  objective_ratio  mean over instances of the returned average latency
                   divided by the demand-weighted worst-case floor
                   (1 where no placement or code is returned)
  peak_rss_mb      ru_maxrss of the process
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import checks  # noqa: E402
from workloads import generate  # noqa: E402

SETUP_SAMPLES = 9
#: typical median time of ``reference`` on the 2-core shared x86-64 VM
#: the bounds were set on; it only sets the scale of reported timings
REFERENCE_NS = 540_000
REFERENCES_PER_PROBE = 20
REFERENCE_WINDOW = 20
REFERENCE_MATRIX = [[Fraction((u * 7 + v * 13) % 97 + 1, 10) for v in range(8)] for u in range(8)]
MARKERS = (checks.REFUSED, checks.UNCERTIFIED)
TAIL_LADDER = (99.9, 99, 95, 90, 80, 75, 50)


def load_workloads() -> dict:
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        return json.load(fh)


def reference() -> int:
    """Fixed work shaped like the program's hot loops: exact rational
    sums and comparisons over a small matrix (a triangle scan)."""
    rows = REFERENCE_MATRIX
    n = len(rows)
    breaches = 0
    for u in range(n):
        for v in range(u + 1, n):
            for w in range(n):
                if rows[u][v] > rows[u][w] + rows[w][v]:
                    breaches += 1
    return breaches


def time_reference() -> int:
    start = time.perf_counter_ns()
    reference()
    return time.perf_counter_ns() - start


def local_scales(refs: list[int]) -> list[float]:
    """Per reference sample: REFERENCE_NS over the median of the samples
    at most REFERENCE_WINDOW positions from it."""
    w = REFERENCE_WINDOW
    return [REFERENCE_NS / statistics.median(refs[max(0, j - w) : j + w + 1]) for j in range(len(refs))]


def render(report, **extra) -> str:
    payload = report.to_dict()
    for key, obj in extra.items():
        payload[key] = obj.to_dict()
    return json.dumps(payload, indent=2)


def make_api(gp) -> SimpleNamespace:
    """The functions an op calls; the tracer swaps in wrappers here."""
    return SimpleNamespace(
        spec_from_dict=gp.spec_from_dict,
        plan=gp.plan,
        verify_plan=gp.verify_plan,
        require_valid=gp.require_valid,
        expand_multifile=gp.expand_multifile,
        eval_linear_code=gp.eval_linear_code,
        render=render,
    )


def run_op(api, gp, inst, options) -> str:
    spec = api.spec_from_dict(inst.network)
    if inst.op == "plan":
        return api.render(api.plan(spec, options))
    if inst.op == "verify":
        result = api.plan(spec, options)
        return api.render(result, verdict=api.verify_plan(spec, result))
    # eval --code: validate, expand, evaluate, render report + recovery
    code = gp.LinearCode.from_dict(inst.code)
    api.require_valid(spec)
    expanded = api.expand_multifile(spec)
    report, recovery = api.eval_linear_code(expanded.network, code)
    return api.render(report, recovery=recovery)


class Outcomes:
    """Per op: failure class; per instance: its successful op times.
    Each distinct output text is checked once in full."""

    def __init__(self, pool):
        self.pool = pool
        self.nets = [checks.Network(inst.network) for inst in pool]
        self.times_ns: list[list[tuple[int, int]]] = [[] for _ in pool]  # (op position, ns)
        self.failed_instance = [False] * len(pool)
        self.attempted = 0
        self.failed = {"raised": 0, "refused": 0, "wrong": 0}
        self.uncertified = 0
        self.answers = 0
        self.proven = 0
        self.checked: dict[int, tuple] = {}  # instance -> (text, problems, proven, average)
        self.problems: list[str] = []

    def record(self, idx: int, elapsed_ns: int, text: str | None, kind: str | None) -> None:
        self.attempted += 1
        if text is not None:
            kind = self._check(idx, text)
        if kind is None:
            self.times_ns[idx].append((self.attempted - 1, elapsed_ns))
            return
        self.failed_instance[idx] = True
        self.failed[kind] += 1

    def latencies_ms(self, scales: list[float] | None = None) -> list[float]:
        """Per instance: the median of its op times, each multiplied by
        the scale at its position, or +inf if any of its ops failed."""
        return [
            math.inf if bad else statistics.median(ns * (scales[pos] if scales else 1) for pos, ns in times) / 1e6
            for times, bad in zip(self.times_ns, self.failed_instance)
        ]

    def _check(self, idx: int, text: str) -> str | None:
        cached = self.checked.get(idx)
        if cached is None or cached[0] != text:
            cached = (text, *self._full_check(idx, json.loads(text)))
            self.checked[idx] = cached
            self.problems.extend(f"instance {idx}: {p}" for p in cached[1] if p not in MARKERS)
        _, problems, proven, _ = cached
        if problems == [checks.REFUSED]:
            return "refused"
        if problems == [checks.UNCERTIFIED]:
            self.uncertified += 1
        elif problems:
            return "wrong"
        self.answers += 1
        self.proven += proven
        return None

    def _full_check(self, idx: int, payload: dict):
        inst, net = self.pool[idx], self.nets[idx]
        if inst.op == "code":
            return checks.check_code(net, inst.code, payload, inst.tags["mds"]), True, Fraction(payload["average"])
        if inst.op == "verify":
            verdict = payload.pop("verdict")
            if verdict.get("status") == "unverified":
                return [checks.REFUSED], False, None
            problems = checks.check_verdict(verdict)
            if payload.get("status") == "ok":
                problems += checks.check_plan(net, payload)
        elif inst.expect == "infeasible":
            problems = checks.check_infeasible(net, payload, inst.tags["square"])
        else:
            problems = checks.check_plan(net, payload)
        objective = Fraction(payload["average"]) if payload.get("status") == "ok" else None
        return problems, bool(payload.get("exhaustive")), objective

    @property
    def failures(self) -> int:
        return sum(self.failed.values())


def timed_op(api, gp, inst, options):
    """Run one op; returns (elapsed ns, rendered text or None, failure kind)."""
    start = time.perf_counter_ns()
    try:
        text = run_op(api, gp, inst, options)
        kind = None
    except gp.BudgetExceededError:
        text, kind = None, "refused"
    except Exception as exc:  # an op that raises is a failed op, not a dead run
        print(f"# op raised {type(exc).__name__}: {exc}", file=sys.stderr)
        text, kind = None, "raised"
    return time.perf_counter_ns() - start, text, kind


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Nearest-rank value of the highest ladder percentile that leaves
    at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    return 100.0, ordered[-1], 0


def measure_setup(args) -> tuple[float, float]:
    """Median wall time of fresh interpreters that import geoplan and
    generate this run's inputs, then exit: unscaled, and with each
    probe scaled by the reference times measured right after it."""
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", "0",
        "--trace", "0",
        "--setup-only",
    ]
    samples, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        # a blocking wait: waiting with a timeout polls in 50 ms steps
        with subprocess.Popen(cmd, stdout=subprocess.DEVNULL) as probe:
            code = probe.wait()
        samples.append(time.perf_counter() - start)
        if code != 0:
            raise SystemExit(f"set-up probe exited with {code}")
        refs = [time_reference() for _ in range(REFERENCES_PER_PROBE)]
        scaled.append(samples[-1] * REFERENCE_NS / statistics.median(refs))
    return statistics.median(samples), statistics.median(scaled)


def end_to_end(args, gp, pool, options) -> tuple[Outcomes, dict]:
    """Cycle through the pool until time is up (at least one whole pass),
    timing the reference loop after each op.

    Latency samples are per instance: the median of its ops in this
    run at the reference host speed; an instance with any failed op
    counts as +inf.
    """
    raw_setup_s, setup_s = measure_setup(args)
    api = make_api(gp)
    out = Outcomes(pool)
    refs = []
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i < len(pool) or time.perf_counter() < deadline:
        idx = i % len(pool)
        elapsed, text, kind = timed_op(api, gp, pool[idx], options)
        out.record(idx, elapsed, text, kind)
        refs.append(time_reference())
        i += 1
    scales = local_scales(refs)
    raw = out.latencies_ms()
    lat = out.latencies_ms(scales)
    p, tail_ms, beyond = tail(lat)
    answered = [ms for ms in lat if ms < math.inf]
    proven = sum(out.checked[idx][2] for idx, ms in enumerate(lat) if ms < math.inf)
    scores = [objective_score(out, idx) for idx in range(len(pool))]
    averages = [c[3] for c in out.checked.values() if c[3] is not None]
    objective_mean = float(sum(averages) / len(averages)) if averages else None
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(answered) / (sum(answered) / 1e3) if answered else 0.0, "1/s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "answered_ratio": (len(answered) / len(pool), "ratio"),
        "proven_ratio": (proven / len(answered) if answered else 0.0, "ratio"),
        "objective_ratio": (float(sum(scores) / len(scores)), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(
        f"# {args.workload} seed={args.seed}: {out.attempted} ops, {i / len(pool):.2f} passes "
        f"over {len(pool)} instances; tail is p{p:g} with {beyond} instances beyond it; "
        f"failed_ratio={out.failures / out.attempted:.6g} {out.failed}; "
        f"uncertified infeasibility verdicts {out.uncertified}; "
        f"unproven_ratio={1 - out.proven / out.answers if out.answers else 0:.6g}; "
        f"objective_mean={objective_mean} RTT over {len(averages)} placements or codes; "
        f"unscaled: setup_s={raw_setup_s:.4f} op_p50_ms={statistics.median(raw):.4f} "
        f"op_tail_ms={tail(raw)[1]:.4f}; median scale {statistics.median(scales):.4f}"
    )
    return out, {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


def objective_score(out: Outcomes, idx: int) -> Fraction:
    """Returned average latency over the network's demand-weighted
    worst-case floor (checks.py); 1 where no placement or code came back."""
    average = out.checked.get(idx, (None,) * 4)[3]
    if average is None or out.failed_instance[idx]:
        return Fraction(1)
    net = out.nets[idx]
    floors = net.floors()
    reference = sum((sum(net.demands[v]) * floors[v] for v in range(net.n)), Fraction(0))
    return average / reference if reference else Fraction(1)


def traced(args, gp, pool, options) -> tuple[Outcomes, dict]:
    """Each op runs untraced, then traced; only whole passes count."""
    from spans import Tracer

    api = make_api(gp)
    tracer = Tracer(api)
    out = Outcomes(pool)
    deadline = time.perf_counter() + args.seconds
    passes = traced_ns = untraced_ns = 0
    while passes == 0 or time.perf_counter() < deadline:
        mark = tracer.mark()
        pass_traced = pass_untraced = 0
        for idx, inst in enumerate(pool):
            if passes and time.perf_counter() >= deadline:
                break
            elapsed, text, kind = timed_op(api, gp, inst, options)
            out.record(idx, elapsed, text, kind)
            pass_untraced += elapsed
            tracer.op_id += 1
            tracer.install()
            try:
                elapsed, text, kind = timed_op(api, gp, inst, options)
            finally:
                tracer.uninstall()
            out.record(idx, elapsed, text, kind)
            pass_traced += elapsed
        else:
            passes += 1
            traced_ns += pass_traced
            untraced_ns += pass_untraced
            continue
        tracer.rewind(mark)
        break
    metrics = tracer.summary(passes, traced_ns, untraced_ns)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    tracer.dump(os.path.join(HERE, "out", f"spans-{args.workload}.json"))
    layers = ", ".join(
        f"{name[:-8]} {m['value']:.1f}" for name, m in metrics.items()
        if name.count(".") == 1 and name.endswith(".self_ms") and not name.startswith("trace")
    )
    print(
        f"# {args.workload} seed={args.seed}: {passes} traced passes of {len(pool)} ops; "
        f"self ms per pass: {layers}; "
        f"unaccounted {metrics['trace.unaccounted_ms']['value']:.3f} ms of "
        f"{metrics['trace.op_ms']['value']:.1f} ms; "
        f"overhead {metrics['trace.overhead_ratio']['value']:.4f}x; "
        f"absent: {', '.join(tracer.absent) or 'none'}"
    )
    return out, metrics


def main(argv=None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "geoplan", "__init__.py")):
        print(f"no geoplan package under {src}", file=sys.stderr)
        return 1
    sys.path.insert(0, src)
    import geoplan as gp
    spec = workloads[args.workload]
    pool = generate(args.workload, spec, args.seed)
    if args.setup_only:
        return 0
    options = gp.PlanOptions(**spec["plan_options"])

    if args.trace:
        out, metrics = traced(args, gp, pool, options)
    else:
        out, metrics = end_to_end(args, gp, pool, options)
    for problem in out.problems[:20]:
        print(f"# wrong: {problem}")
    result = {
        "correct": out.failed["wrong"] == 0 and out.failed["raised"] == 0,
        "attempted": out.attempted,
        "failed": out.failures,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
