"""Command-line front end: find, check, verify, construct, stats.

All heavy output goes to files as JSON/CSV/DOT; stdout carries one-line
human summaries.  Exit codes are a stable contract:

    0  found / valid / completed
    1  not found / invalid certificate / counterexample
    2  search budget exhausted
    3  input could not be parsed
    4  usage or parameter error
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path as FsPath

from .cab import find_cab, find_oriented_cycle_subdivision
from .constructions import join_no_k4, join_no_s4, load_building_block
from .core import (
    Digraph,
    bioriented_clique,
    bioriented_path,
    bioriented_star,
    directed_cycle,
    directed_girth,
    k3_minus_e,
    min_out_degree,
    pattern_cab,
    pattern_two_block,
    read_edge_list,
    strong_components,
    to_dot,
    transitive_tournament,
    write_edge_list,
)
from .errors import (
    BadParams,
    BudgetExceeded,
    DegeneratePattern,
    EmptyGraph,
    ParseError,
    PropertyMismatch,
    TooLarge,
)
from .k3e import find_k3e
from .mader import CSV_HEADER, lower_witness, verify_upper
from .menger import strong_arc_connectivity
from .oracle import DEFAULT_BUDGET, SubdivisionCertificate, as_budget, require_valid, validate_certificate
from .outcome import NotFound
from .two_block import find_two_block

EXIT_FOUND = 0
EXIT_NOT_FOUND = 1
EXIT_BUDGET = 2
EXIT_PARSE = 3
EXIT_USAGE = 4


def _split_spec(spec: str) -> tuple[str, list[int]]:
    """A pattern spec's name and its integer arguments."""
    name, _, args = spec.partition(":")
    try:
        return name, [int(x) for x in args.split(",")] if args else []
    except ValueError as exc:
        raise BadParams(f"bad pattern arguments in {spec!r}") from exc


def parse_pattern(spec: str) -> Digraph:
    """Pattern mini-language: ``cab:2,3``, ``twoblock:3,2``, ``k3e``,
    ``dicycle:5``, ``bivec-clique:4``, ``bivec-star:3``, ``bivec-path:4``,
    ``transitive:4``."""
    name, nums = _split_spec(spec)
    if name == "cab" and len(nums) == 2:
        return pattern_cab(*nums)
    if name == "twoblock" and len(nums) == 2:
        return pattern_two_block(*nums)
    if name == "k3e" and not nums:
        return k3_minus_e()
    if name == "dicycle" and len(nums) == 1:
        return directed_cycle(nums[0])
    if name == "bivec-clique" and len(nums) == 1:
        return bioriented_clique(nums[0])
    if name == "bivec-star" and len(nums) == 1:
        return bioriented_star(nums[0])
    if name == "bivec-path" and len(nums) == 1:
        return bioriented_path(nums[0])
    if name == "transitive" and len(nums) == 1:
        return transitive_tournament(nums[0])
    raise BadParams(f"unknown pattern spec {spec!r}")


def _budget(text: str) -> int:
    """A ``--budget`` value: a node count, 0 or more."""
    try:
        return as_budget(int(text)).max_nodes
    except (ValueError, BadParams) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _load_graph(path: str) -> Digraph:
    return read_edge_list(FsPath(path).read_text())


def _write(path: str | None, text: str) -> None:
    if path:
        FsPath(path).write_text(text)


def _resolve(spec: str, budget: int):
    """The pattern a spec names and the finder for it: ``finder(d, log)``
    returns a certificate or a ``NotFound``."""
    pattern = parse_pattern(spec)
    name, nums = _split_spec(spec)
    if name == "cab":
        return pattern, lambda d, log=None: find_cab(d, *nums, budget, log=log)
    if name == "twoblock":
        return pattern, lambda d, log=None: find_two_block(d, *nums, budget, log=log)
    if name == "k3e":
        return pattern, lambda d, log=None: find_k3e(d, trace=log)
    return pattern, lambda d, log=None: find_oriented_cycle_subdivision(d, pattern, budget, log=log)


def cmd_find(args) -> int:
    try:
        d = _load_graph(args.input)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    log: list = []
    try:
        pattern, finder = _resolve(args.pattern, args.budget)
        found = finder(d, log)
    except BudgetExceeded as exc:
        found = exc
    except (BadParams, DegeneratePattern) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.log:
        _write(args.log, "\n".join(json.dumps(e) for e in log) + "\n" if log else "")
    if isinstance(found, BudgetExceeded):
        print(f"budget exhausted: {found.details}")
        return EXIT_BUDGET
    if isinstance(found, NotFound):
        print(f"not found: {found.reason} {json.dumps(found.details, default=str)}")
        return EXIT_NOT_FOUND
    require_valid(d, pattern, found, "finder certificate")
    _write(args.out, found.to_json() + "\n")
    print(f"found: {len(found.branch)} branch vertices, {len(found.paths)} paths"
          + (f" -> {args.out}" if args.out else ""))
    return EXIT_FOUND


def cmd_check(args) -> int:
    try:
        host = _load_graph(args.input)
        pattern = parse_pattern(args.pattern)
        cert = SubdivisionCertificate.from_json(FsPath(args.cert).read_text())
    except (ParseError, OSError, BadParams, DegeneratePattern) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    report = validate_certificate(host, pattern, cert)
    if report:
        print("valid")
        return EXIT_FOUND
    print(f"invalid: {report.violation}")
    return EXIT_NOT_FOUND


def cmd_verify(args) -> int:
    try:
        pattern, finder = _resolve(args.pattern, args.budget)
        # only these finders are proved at degrees a sweep can reach; the
        # oracle decides every other pattern alone
        if _split_spec(args.pattern)[0] not in ("k3e", "twoblock"):
            finder = None
        report = verify_upper(
            pattern,
            args.k,
            args.n_max,
            mode=args.mode,
            pattern_name=args.pattern,
            finder=finder,
            samples=args.samples,
            seed=args.seed,
            budget=args.budget,
        )
    except (BadParams, DegeneratePattern) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.out:
        _write(args.out, report.to_json() + "\n")
    if args.csv:
        _write(args.csv, CSV_HEADER + report.to_csv_row())
    print(f"{report.outcome}: checked {report.checked} hosts"
          + (f", {report.budget_failures} budget failures" if report.budget_failures else ""))
    if report.outcome == "all-contain":
        return EXIT_FOUND
    return EXIT_NOT_FOUND if report.outcome == "counterexample" else EXIT_BUDGET


def cmd_construct(args) -> int:
    try:
        block = load_building_block(FsPath(args.block).read_text())
    except (ParseError, PropertyMismatch, EmptyGraph, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        if args.family == "no-k4":
            host, layout = join_no_k4(block)
        else:
            host, layout = join_no_s4(block)
    except PropertyMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    comment = f"family: {args.family}, block vertices: {block.graph.n}"
    _write(args.out, write_edge_list(host, comments=[comment]))
    if args.layout:
        _write(args.layout, json.dumps(layout.to_json_dict(), indent=2) + "\n")
    print(f"built {args.family} host on {host.n} vertices"
          + (f" -> {args.out}" if args.out else ""))
    return EXIT_FOUND


def cmd_stats(args) -> int:
    try:
        d = _load_graph(args.input)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    girth = directed_girth(d)
    stats = {
        "n": d.n,
        "m": d.m,
        "min_out_degree": min_out_degree(d) if d.n else None,
        "girth": "inf" if girth == float("inf") else int(girth),
        "strong_components": len(strong_components(d)),
        "arc_connectivity": strong_arc_connectivity(d) if d.n >= 2 else None,
    }
    if args.format == "dot":
        _write(args.out, to_dot(d))
    elif args.out:
        _write(args.out, json.dumps(stats, indent=2) + "\n")
    print(", ".join(f"{k}={v}" for k, v in stats.items()))
    return EXIT_FOUND


def cmd_witness(args) -> int:
    try:
        pattern = parse_pattern(args.pattern)
    except (BadParams, DegeneratePattern) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    witness, confirmed = lower_witness(pattern, budget=args.budget)
    _write(args.out, write_edge_list(witness))
    print(f"witness on {witness.n} vertices, oracle-confirmed: {confirmed}")
    return EXIT_FOUND


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="digraphsub", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    find = sub.add_parser("find", help="search a host for a pattern subdivision")
    find.add_argument("--in", dest="input", required=True, help="edge-list file")
    find.add_argument("--pattern", required=True)
    find.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET,
                      help="search nodes for cab, twoblock and the other cycle orientations; "
                           "k3e and directed cycles run in polynomial time and never spend it")
    find.add_argument("--out", help="certificate JSON path")
    find.add_argument("--log", help="run-log JSONL path")
    find.set_defaults(func=cmd_find)

    check = sub.add_parser("check", help="validate a certificate")
    check.add_argument("--in", dest="input", required=True)
    check.add_argument("--pattern", required=True)
    check.add_argument("--cert", required=True)
    check.set_defaults(func=cmd_check)

    verify = sub.add_parser("verify", help="degree-threshold sweep")
    verify.add_argument("--pattern", required=True)
    verify.add_argument("--k", type=int, required=True)
    verify.add_argument("--n-max", type=int, default=5)
    verify.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    verify.add_argument("--samples", type=int, default=1000)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    verify.add_argument("--out", help="report JSON path")
    verify.add_argument("--csv", help="summary CSV path")
    verify.set_defaults(func=cmd_verify)

    construct = sub.add_parser("construct", help="build an arc-connected host")
    construct.add_argument("--family", choices=["no-k4", "no-s4"], required=True)
    construct.add_argument("--block", required=True, help="building-block edge list")
    construct.add_argument("--out", help="host edge-list path")
    construct.add_argument("--layout", help="layout JSON path")
    construct.set_defaults(func=cmd_construct)

    stats = sub.add_parser("stats", help="structural summary of a digraph")
    stats.add_argument("--in", dest="input", required=True)
    stats.add_argument("--format", choices=["json", "dot"], default="json")
    stats.add_argument("--out")
    stats.set_defaults(func=cmd_stats)

    witness = sub.add_parser("witness", help="generic lower-bound witness")
    witness.add_argument("--pattern", required=True)
    witness.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    witness.add_argument("--out")
    witness.set_defaults(func=cmd_witness)

    return top


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error; here 2 is a spent budget
        if exc.code == 2:
            return EXIT_USAGE
        raise
    try:
        return args.func(args)
    except TooLarge as exc:  # a size past what exhaustive search allows
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
