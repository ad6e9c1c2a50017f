"""Command-line front end.

Commands: plan, eval, oracle, export, expand, validate.  Summaries are
printed human-readable to stdout; the machine-readable JSON report goes
to --out when given, to stdout otherwise.

Exit codes (stable):
  0  success
  1  I/O, parse or malformed-input error
  2  usage error
  3  network validation failed
  4  infeasible (no admissible placement exists / oracle found none)
  5  oracle enumeration budget or plan's MAX_TABLE_ROWS exceeded
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import BudgetExceededError, InvalidInputError, InvalidSpecError
from .evaluation import LinearCode, eval_linear_code, eval_uncoded
from .model import (
    NetworkSpec,
    Placement,
    expand_multifile,
    load_spec,
    require_valid,
    validate_spec,
)
from .nngraph import build_nng, enumerate_nngs, extended_to_dot, build_extended_graph, nng_to_dot
from .oracle import DEFAULT_ORACLE_BUDGET, brute_force_placement
from .planner import InfeasiblePlan, PlanOptions, plan
from .rational import frac_decimal, frac_str

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_INFEASIBLE = 4
EXIT_BUDGET = 5


def _fmt(x) -> str:
    return f"{frac_str(x)} ({frac_decimal(x)})"


def _emit(data: dict, out: str | None) -> None:
    text = json.dumps(data, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(args) -> NetworkSpec:
    return load_spec(args.spec, rtt_csv=args.rtt_csv, demands_csv=args.demands_csv)


def _print_violations(result) -> None:
    for v in result.violations:
        print(f"{v.severity}: [{v.kind}] {v.message}", file=sys.stderr)


def cmd_validate(args) -> int:
    spec = _load(args)
    result = validate_spec(spec, strict=args.strict)
    _print_violations(result)
    payload = {
        "schema": "validation/1",
        "ok": result.ok,
        "violations": [
            {"kind": v.kind, "severity": v.severity, "message": v.message}
            for v in result.violations
        ],
    }
    _emit(payload, args.out)
    if result.ok:
        print(f"ok: {spec.node_count} nodes, {spec.file_count} files")
        return EXIT_OK
    return EXIT_INVALID


def cmd_plan(args) -> int:
    spec = _load(args)
    options = PlanOptions(
        nng_cap=args.nng_cap,
        strict=args.strict,
        with_trace=args.trace,
    )
    result = plan(spec, options)
    if isinstance(result, InfeasiblePlan):
        print(f"infeasible: {result.message}")
        _emit(result.to_dict(), args.out)
        return EXIT_INFEASIBLE
    print(f"average latency: {_fmt(result.value)}")
    for node_id, j in result.placement_pairs():
        print(f"  {node_id}: file {j}")
    rep = result.latency
    for v, node_id in enumerate(rep.node_ids):
        print(
            f"  worst case {node_id}: {_fmt(rep.worst_case[v])}"
            f"  floor {_fmt(rep.wc_bounds[v])}"
        )
    print(f"supply graph {result.graph_index}, exhaustive: {result.exhaustive}")
    _emit(result.to_dict(), args.out)
    return EXIT_OK


def _read_placement(path: str, spec: NetworkSpec) -> Placement:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "placement" in data:
        data = data["placement"]
    if not isinstance(data, list):
        raise InvalidInputError("placement file must be a list of [node id, file] pairs")
    by_node: dict[str, list[int]] = {node_id: [] for node_id in spec.node_ids}
    for entry in data:
        try:
            node_id, j = entry
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"bad placement entry {entry!r}") from exc
        if not isinstance(node_id, str) or node_id not in by_node:
            raise InvalidInputError(f"unknown node id {node_id!r} in placement")
        if isinstance(j, bool) or not isinstance(j, int):
            raise InvalidInputError(f"file index {j!r} of node {node_id!r} is not an integer")
        by_node[node_id].append(j)
    return Placement(files_by_node=tuple(tuple(by_node[i]) for i in spec.node_ids))


def cmd_eval(args) -> int:
    spec = _load(args)
    require_valid(spec, strict=args.strict)
    if (args.placement is None) == (args.code is None):
        raise InvalidInputError("eval needs exactly one of --placement or --code")
    if args.placement is not None:
        placement = _read_placement(args.placement, spec)
        report = eval_uncoded(spec, placement)
        payload = report.to_dict()
    else:
        with open(args.code, encoding="utf-8") as fh:
            code = LinearCode.from_dict(json.load(fh))
        expanded = expand_multifile(spec)
        report, recovery = eval_linear_code(expanded.network, code)
        payload = report.to_dict()
        payload["recovery"] = recovery.to_dict()
    print(f"average latency: {_fmt(report.average)}")
    for v, node_id in enumerate(report.node_ids):
        print(
            f"  worst case {node_id}: {_fmt(report.worst_case[v])}"
            f"  floor {_fmt(report.wc_bounds[v])}"
        )
    _emit(payload, args.out)
    return EXIT_OK


def cmd_oracle(args) -> int:
    spec = _load(args)
    mode = "admissible_only" if args.mode == "admissible" else "unrestricted"
    result = brute_force_placement(
        spec,
        mode=mode,
        budget=args.budget or DEFAULT_ORACLE_BUDGET,
        nng_cap=args.nng_cap,
    )
    payload = result.to_dict()
    if result.best_value is None:
        print("no feasible placement in this mode")
        _emit(payload, args.out)
        return EXIT_INFEASIBLE
    print(f"minimum average latency: {_fmt(result.best_value)}")
    print(f"{len(result.witnesses)} witness placement(s) over {result.search_space} candidates")
    payload["witness_placements"] = []
    for plc in result.witnesses:
        pairs = [
            [node_id, j]
            for node_id, files in zip(spec.node_ids, plc.files_by_node)
            for j in files
        ]
        payload["witness_placements"].append(pairs)
    _emit(payload, args.out)
    return EXIT_OK


def cmd_export(args) -> int:
    spec = _load(args)
    require_valid(spec, strict=args.strict)
    work = expand_multifile(spec).network
    prefix = args.out or "network"
    written = []
    if args.all_nngs:
        enumeration = enumerate_nngs(work, cap=args.nng_cap)
        graphs = list(enumeration.graphs)
        names = [f"{prefix}.nng-{i:02d}.dot" for i in range(len(graphs))]
        conflict_names = [f"{prefix}.conflicts-{i:02d}.dot" for i in range(len(graphs))]
    else:
        graphs = [build_nng(work)]
        names = [f"{prefix}.nng.dot"]
        conflict_names = [f"{prefix}.conflicts.dot"]
    for nng, name, conflict_name in zip(graphs, names, conflict_names):
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(nng_to_dot(nng, work))
        with open(conflict_name, "w", encoding="utf-8") as fh:
            fh.write(extended_to_dot(build_extended_graph(nng)))
        written.extend([name, conflict_name])
    for name in written:
        print(f"wrote {name}")
    return EXIT_OK


def cmd_expand(args) -> int:
    spec = _load(args)
    require_valid(spec, strict=args.strict)
    expanded = expand_multifile(spec)
    work = expanded.network
    print(f"{spec.node_count} nodes -> {work.node_count} unit slots")
    _emit(work.to_dict(), args.out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geoplan",
        description="Latency-optimal file placement for geo-distributed storage.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--spec", required=True, help="network JSON file")
        p.add_argument("--rtt-csv", help="override RTT matrix from headerless CSV")
        p.add_argument("--demands-csv", help="override demand matrix from headerless CSV")
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        p.add_argument("--strict", action="store_true",
                       help="escalate validation warnings to errors")

    p = sub.add_parser("plan", help="find a minimum-average admissible placement")
    common(p)
    p.add_argument("--nng-cap", type=int, default=64,
                   help="max supply graphs to enumerate under RTT ties")
    p.add_argument("--trace", action="store_true",
                   help="include the assignment solver's step trace")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("eval", help="evaluate a placement or a linear code")
    common(p)
    p.add_argument("--placement", help="JSON list of [node id, file index] pairs")
    p.add_argument("--code", help="JSON object {q, generator} for coded storage")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("oracle", help="brute-force minimum for small networks")
    common(p)
    p.add_argument("--mode", choices=["admissible", "unrestricted"],
                   default="admissible", help="placement universe to search")
    p.add_argument("--budget", type=int, default=None,
                   help="max placements to enumerate")
    p.add_argument("--nng-cap", type=int, default=64)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("export", help="write supply and conflict graphs as DOT")
    common(p)
    p.add_argument("--all-nngs", action="store_true",
                   help="one file per supply graph when RTT ties allow several")
    p.add_argument("--nng-cap", type=int, default=64)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("expand", help="rewrite a capacitated network as unit slots")
    common(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("validate", help="check a network description")
    common(p)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InvalidSpecError as exc:
        if exc.result is not None:
            _print_violations(exc.result)
        else:
            print(f"invalid network: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
