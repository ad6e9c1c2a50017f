"""Outside-in tracing of geoplan's module boundaries.

The tracer replaces public functions in the module namespaces where
their callers look them up (``geoplan.planner.color_cost_matrix`` is the
name the planner calls, for example) with wrappers that record one span
per call: name, start, end, parent span and op id.  Spans stay in memory
until the run ends.  Self time is a span's duration minus the time its
child spans cover; because one thread runs everything, children nest
inside their parent and never overlap.

A target missing from its module, because a later change renamed or
removed it, is reported as absent instead of as zero time.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from time import perf_counter_ns

# (metric name, module whose namespace holds the looked-up name, attribute).
# Module "bench" means the benchmark's own op namespace.
TARGETS = [
    ("model.spec_from_dict", "bench", "spec_from_dict"),
    ("model.require_valid", "geoplan.planner", "require_valid"),
    ("model.require_valid", "geoplan.oracle", "require_valid"),
    ("model.require_valid", "bench", "require_valid"),
    ("model.expand_multifile", "geoplan.planner", "expand_multifile"),
    ("model.expand_multifile", "geoplan.oracle", "expand_multifile"),
    ("model.expand_multifile", "bench", "expand_multifile"),
    ("nngraph.enumerate_nngs", "geoplan.planner", "enumerate_nngs"),
    ("nngraph.enumerate_nngs", "geoplan.oracle", "enumerate_nngs"),
    ("nngraph.build_extended_graph", "geoplan.planner", "build_extended_graph"),
    ("coloring.iter_colorings", "geoplan.planner", "iter_colorings"),
    ("coloring.find_coloring", "geoplan.planner", "find_coloring"),
    ("assignment.tx_latency_matrix", "geoplan.planner", "tx_latency_matrix"),
    ("assignment.color_cost_matrix", "geoplan.planner", "color_cost_matrix"),
    ("assignment.hungarian_min_assignment", "geoplan.planner", "hungarian_min_assignment"),
    ("planner.plan", "bench", "plan"),
    ("evaluation.eval_uncoded", "geoplan.planner", "eval_uncoded"),
    ("evaluation.eval_uncoded", "geoplan.oracle", "eval_uncoded"),
    ("evaluation.eval_linear_code", "bench", "eval_linear_code"),
    ("gf.solution_space", "geoplan.evaluation", "solution_space"),
    ("oracle.verify_plan", "bench", "verify_plan"),
    ("oracle.brute_force_placement", "geoplan.oracle", "brute_force_placement"),
    ("cli.render", "bench", "render"),
]

#: generator functions: each resumption is its own span
GENERATOR_TARGETS = {"coloring.iter_colorings"}

#: targets that call other targets, so their self time differs from their time
PARENT_TARGETS = {
    "planner.plan",
    "evaluation.eval_linear_code",
    "oracle.verify_plan",
    "oracle.brute_force_placement",
}

LAYERS = ("model", "nngraph", "coloring", "assignment", "planner", "evaluation", "gf", "oracle", "cli")


def _count(counters: Counter, name: str, args, result) -> None:
    """Work counters read from the values the program returns."""
    if name == "model.require_valid":
        counters["model.triangle_warnings"] += sum(v.kind == "triangle" for v in result.violations)
    elif name == "nngraph.enumerate_nngs":
        counters["nngraph.graphs"] += len(result.graphs)
        counters["nngraph.graphs_total"] += result.total
    elif name == "nngraph.build_extended_graph":
        counters["nngraph.conflict_edges"] += len(result.edges)
    elif name == "planner.plan":
        counters["coloring.colorings"] += result.stats.colorings
        counters["assignment.solved"] += result.stats.assignments_solved
        counters["assignment.pruned"] += result.stats.assignments_pruned
        if getattr(result, "certificate_ids", ()) is None:
            counters["coloring.uncertified"] += 1
    elif name == "evaluation.eval_linear_code":
        code = args[1]
        counters["evaluation.cosets"] += code.field_order ** (code.node_count - code.file_count)
    elif name == "oracle.brute_force_placement":
        counters["oracle.search_space"] += result.search_space
        counters["oracle.scored"] += result.scored


class Tracer:
    def __init__(self, api):
        self.spans: list = []  # (name, start_ns, end_ns, parent index, op id)
        self.stack: list[int] = []
        self.op_id = 0
        self.counters: Counter = Counter()
        self.sites: list = []  # (namespace, attr, original, wrapper)
        self.absent: list[str] = []
        self.present: set[str] = set()
        for name, module, attr in TARGETS:
            ns = api if module == "bench" else importlib.import_module(module)
            original = getattr(ns, attr, None)
            if original is None:
                self.absent.append(f"{module}.{attr}")
                continue
            self.present.add(name)
            wrap = self._wrap_generator if name in GENERATOR_TARGETS else self._wrap
            self.sites.append((ns, attr, original, wrap(name, original)))

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        return index

    def _close(self, index: int, name: str, start: int) -> None:
        end = perf_counter_ns()
        self.stack.pop()
        parent = self.stack[-1] if self.stack else -1
        self.spans[index] = (name, start, end, parent, self.op_id)

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            index = self._open()
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, name, start)
            _count(self.counters, name, args, result)
            return result

        return traced

    def _wrap_generator(self, name, fn):
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                index = self._open()
                start = perf_counter_ns()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(index, name, start)
                yield item

        return traced

    def install(self) -> None:
        for ns, attr, _, wrapper in self.sites:
            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original, _ in self.sites:
            setattr(ns, attr, original)

    def mark(self):
        return len(self.spans), Counter(self.counters)

    def rewind(self, mark) -> None:
        """Drop everything recorded after ``mark`` (an unfinished pass)."""
        del self.spans[mark[0]:]
        self.counters = mark[1]

    def summary(self, passes: int, traced_op_ns: int, untraced_op_ns: int) -> dict:
        """Per-layer figures for one pass of the pool: mean time per pass,
        exact counts per pass, and ratios with their bases alongside."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls, total, own = Counter(), Counter(), Counter()
        for (name, start, end, _, _), children in zip(self.spans, child_ns):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - children
        out: dict = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        def ms(ns):
            return ns / 1e6 / passes

        for name in dict.fromkeys(name for name, _, _ in TARGETS):
            figures = [("ms", ms(total[name]), "ms"), ("calls", calls[name] // passes, "count")]
            if name in PARENT_TARGETS:
                figures.append(("self_ms", ms(own[name]), "ms"))
            for suffix, value, unit in figures:
                if name in self.present:
                    put(f"{name}.{suffix}", value, unit)
                else:
                    out[f"{name}.{suffix}"] = {"value": None, "unit": unit, "absent": True}
        for layer in LAYERS:
            put(f"{layer}.self_ms", ms(sum(v for k, v in own.items() if k.split(".")[0] == layer)), "ms")
        c = self.counters
        for name in (
            "model.triangle_warnings",
            "nngraph.graphs",
            "nngraph.graphs_total",
            "nngraph.conflict_edges",
            "coloring.colorings",
            "coloring.uncertified",
            "assignment.solved",
            "assignment.pruned",
            "evaluation.cosets",
            "oracle.search_space",
            "oracle.scored",
        ):
            put(name, c[name] // passes, "count")
        attempts = c["assignment.solved"] + c["assignment.pruned"]
        put("assignment.solved_ratio", c["assignment.solved"] / attempts if attempts else 0.0, "ratio")
        space = c["oracle.search_space"]
        put("oracle.admissible_ratio", c["oracle.scored"] / space if space else 0.0, "ratio")
        accounted = sum(own.values())
        put("trace.op_ms", ms(traced_op_ns), "ms")
        put("trace.unaccounted_ms", ms(traced_op_ns - accounted), "ms")
        put("trace.overhead_ratio", traced_op_ns / untraced_op_ns, "ratio")
        put("trace.passes", passes, "count")
        return out

    def dump(self, path: str) -> None:
        """Write the recorded spans as one JSON document."""
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "op"],
                    "names": names,
                    "absent": self.absent,
                    "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
                },
                fh,
                separators=(",", ":"),
            )
