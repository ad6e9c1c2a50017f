"""The benchmark in bench/ still runs against this package.

Reads bench/ and changes nothing in it: every workload's plan options
construct, and the first two instances of each seed-1 pool go through
the benchmark's own op runner and output checks without a failure, and
the tracer finds every function it times and reports no metric as
missing.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

import geoplan as gp

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import generate  # noqa: E402

WORKLOADS = run.load_workloads()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_plan_options_construct(workload):
    gp.PlanOptions(**WORKLOADS[workload]["plan_options"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_first_instances_pass_the_benchmark_checks(workload):
    spec = WORKLOADS[workload]
    pool = generate(workload, spec, 1)[:2]
    options = gp.PlanOptions(**spec["plan_options"])
    out = run.Outcomes(pool)
    api = run.make_api(gp)
    for idx, inst in enumerate(pool):
        out.record(idx, 0, run.run_op(api, gp, inst, options), None)
    assert out.problems == []
    assert out.failures == 0 and out.answers == 2


def test_tracer_finds_every_target():
    assert spans.Tracer(run.make_api(gp)).absent == []


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_one_traced_pass_reports_every_metric(workload):
    spec = WORKLOADS[workload]
    pool = generate(workload, spec, 1)[:2]
    options = gp.PlanOptions(**spec["plan_options"])
    api = run.make_api(gp)
    tracer = spans.Tracer(api)
    untraced_ns = traced_ns = 0
    for inst in pool:
        start = time.perf_counter_ns()
        run.run_op(api, gp, inst, options)
        untraced_ns += time.perf_counter_ns() - start
        tracer.install()
        try:
            start = time.perf_counter_ns()
            run.run_op(api, gp, inst, options)
            traced_ns += time.perf_counter_ns() - start
        finally:
            tracer.uninstall()
    metrics = tracer.summary(1, traced_ns, untraced_ns)
    assert [name for name, m in metrics.items() if m["value"] is None] == []
