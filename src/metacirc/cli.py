"""Command-line front end.

Subcommands:

* ``info``      group invariants (n0, order, |Aut(G)|, structure flags)
* ``classify``  full classification report as JSON (oracle or theorem mode)
* ``enumerate`` alias for oracle-mode classify
* ``aut``       automorphism group of a graph6 graph
* ``iso``       isomorphism test between two graph6 graphs
* ``export``    a standard-form Cayley graph in graph6/dot/json
* ``sweep``     census over all hypothesis-(*) specs up to an order bound,
  optionally writing one JSON report per spec (JSONL) with ``--out``

Exit codes: 0 success, 1 usage error or a stdout closed by its reader (as
``| head`` closes it), 2 computation bound exceeded, 3 disagreement with the
bundled predictions under --strict (the same test for ``classify``,
``enumerate`` and ``sweep``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from functools import cache, partial
from pathlib import Path

from metacirc.aut import aut_generators, parametrized_count
from metacirc.autosearch import analyze, are_isomorphic, canonical_form
from metacirc.classify import (
    classify_spec,
    emit_report,
    parallel_map,
    report_to_json_dict,
)
from metacirc.errors import BoundExceeded
from metacirc.graphs import Graph, build_cayley, from_graph6, to_dot, to_graph6
from metacirc.groups import GroupSpec, iter_specs
from metacirc.permgroup import PermGroup
from metacirc.predictions import standard_connection_set

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BOUND = 2
EXIT_DISAGREEMENT = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for
    # computation bounds, so remap
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _add_group_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, required=True, help="modulus of <a> (odd)")
    p.add_argument("--n", type=int, required=True, help="modulus of <b> (odd)")
    p.add_argument("--r", type=int, required=True, help="conjugation multiplier mod m")
    p.add_argument("--ell", type=int, default=1, help="modulus of the central factor (odd, default 1)")


def _spec_from_args(args) -> GroupSpec:
    try:
        return GroupSpec(args.m, args.n, args.r, args.ell)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _jobs_from_args(args) -> int:
    if args.jobs < 1:
        raise _UsageError(f"--jobs must be at least 1, got {args.jobs}")
    return args.jobs


def build_parser() -> _Parser:
    parser = _Parser(prog="metacirc", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="print group invariants")
    p.set_defaults(run=_cmd_info)
    _add_group_args(p)

    for name in ("classify", "enumerate"):
        p = sub.add_parser(name, help="classification report as JSON")
        p.set_defaults(run=_cmd_classify, mode="oracle")
        _add_group_args(p)
        if name == "classify":
            p.add_argument("--mode", choices=("oracle", "theorem"))
        p.add_argument("--bound", type=int, default=1000,
                       help="oracle mode: max group order whose candidate sets are walked "
                       "(default 1000); theorem mode is capped by the 2000-vertex search")
        p.add_argument("--jobs", type=int, default=1, help="parallel workers")
        p.add_argument("--strict", action="store_true", help="exit 3 on any prediction disagreement")
        p.add_argument("--out", type=str, default=None, help="also write the report to a file")
        p.add_argument("--graphs", action="store_true", help="with --out, dump graph6/dot per class")

    p = sub.add_parser("aut", help="automorphism group of a graph")
    p.set_defaults(run=_cmd_aut)
    p.add_argument("--graph6", type=str, default=None, help="graph6 string")
    p.add_argument("--file", type=str, default=None, help="file with a graph6 line")

    p = sub.add_parser("iso", help="isomorphism test")
    p.set_defaults(run=_cmd_iso)
    p.add_argument("--a", type=str, required=True, help="first graph6 file")
    p.add_argument("--b", type=str, required=True, help="second graph6 file")

    p = sub.add_parser("export", help="emit a standard-form Cayley graph")
    p.set_defaults(run=_cmd_export)
    _add_group_args(p)
    p.add_argument("--j", type=int, required=True, help="standard-set index (1 <= j < n0)")
    p.add_argument("--format", choices=("graph6", "dot", "json"), default="graph6")

    p = sub.add_parser("sweep", help="census over hypothesis-(*) specs")
    p.set_defaults(run=_cmd_sweep)
    p.add_argument("--max-order", dest="bound", metavar="MAX_ORDER", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1, help="parallel workers, one spec per task")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out", type=str, default=None, help="also write one JSON report per spec (JSONL)")
    return parser


# one parser per process, built by the first main call rather than at import;
# parsing leaves it unchanged, so every call sees the same parser
_shared_parser = cache(build_parser)


def _cmd_info(args) -> int:
    spec = _spec_from_args(args)
    # the closed form needs no vertex permutation, whatever the group's size
    aut_order = parametrized_count(spec) if spec.sylow_cyclic else aut_generators(spec)[1]
    print(f"m={spec.m} n={spec.n} r={spec.r} ell={spec.ell}")
    print(f"n0={spec.n0}")
    print(f"order={spec.order}")
    print(f"aut_order={aut_order}")
    print(f"abelian={spec.is_abelian}")
    print(f"sylow_cyclic={spec.sylow_cyclic}")
    print(f"hypothesis_star={spec.hypothesis_star}")
    return EXIT_OK


def _cmd_classify(args) -> int:
    if args.graphs and not args.out:
        raise _UsageError("--graphs needs --out")
    spec = _spec_from_args(args)
    jobs = _jobs_from_args(args)
    try:
        report = classify_spec(spec, mode=args.mode, bound=args.bound, jobs=jobs)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    if args.out:
        try:
            emit_report(report, args.out, graphs=args.graphs)
        except OSError as exc:
            raise _UsageError(f"cannot write {args.out}: {exc.strerror}") from exc
    print(json.dumps(report_to_json_dict(report), indent=2))
    return _strict_exit(args, report.disagrees)


def _strict_exit(args, disagrees: bool) -> int:
    """The exit code of ``classify`` and ``sweep``: under ``--strict``, a
    census that disagrees with the bundled predictions says so on stderr
    and exits 3."""
    if args.strict and disagrees:
        print("strict: disagreement with bundled predictions", file=sys.stderr)
        return EXIT_DISAGREEMENT
    return EXIT_OK


def _parse_graph6(data: bytes | str) -> Graph:
    try:
        return from_graph6(data)
    except ValueError as exc:
        raise _UsageError(f"malformed graph6: {exc}") from exc


def _read_graph6_file(path: str) -> Graph:
    try:
        lines = Path(path).read_bytes().split()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror}") from exc
    if not lines:
        raise _UsageError(f"no graph6 line in {path}")
    return _parse_graph6(lines[0])


def _read_graph(args) -> Graph:
    if args.graph6 is not None:
        return _parse_graph6(args.graph6)
    if args.file is not None:
        return _read_graph6_file(args.file)
    data = sys.stdin.buffer.read().split()
    if not data:
        raise _UsageError("no graph given: use --graph6, --file, or stdin")
    return _parse_graph6(data[0])


def _cmd_aut(args) -> int:
    g = _read_graph(args)
    # one search gives both the generators and the canonical labeling
    result = analyze(g)
    group = PermGroup(g.n, result.generators, result.base)
    print(f"n={g.n}")
    print(f"aut_order={group.order}")
    print(f"transitive={group.is_transitive()}")
    print(f"canonical={canonical_form(g, result).decode('ascii')}")
    for p in group.generators:
        print("generator=" + " ".join(map(str, p)))
    return EXIT_OK


def _cmd_iso(args) -> int:
    g1 = _read_graph6_file(args.a)
    g2 = _read_graph6_file(args.b)
    verdict = are_isomorphic(g1, g2)
    print("isomorphic" if verdict else "not isomorphic")
    return EXIT_OK


def _cmd_export(args) -> int:
    spec = _spec_from_args(args)
    try:
        S = standard_connection_set(args.j, spec)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    g = build_cayley(S, spec)
    if args.format == "graph6":
        sys.stdout.buffer.write(to_graph6(g) + b"\n")
    elif args.format == "dot":
        sys.stdout.write(to_dot(g))
    else:
        print(json.dumps(g.to_json_dict()))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    """Classify every spec, each as one task of ``parallel_map`` under
    ``--jobs``, and report them in spec order."""
    jobs = _jobs_from_args(args)
    try:
        sink = open(args.out, "w") if args.out else nullcontext()
    except OSError as exc:
        raise _UsageError(f"cannot write {args.out}: {exc.strerror}") from exc
    with sink as out:
        specs = list(iter_specs(args.bound))
        run = partial(classify_spec, mode="oracle", bound=args.bound, jobs=1)
        disagreement = False
        print("m n r n0 order classes phi_n0_half thm2_claim aut_orders agree findings")
        for report in parallel_map(run, specs, jobs):
            spec = report.spec
            if out is not None:
                out.write(json.dumps(report_to_json_dict(report)) + "\n")
            orders = ",".join(str(c.aut_order) for c in report.classes) or "-"
            disagreement |= report.disagrees
            print(
                f"{spec.m} {spec.n} {spec.r} {spec.n0} {spec.order} "
                f"{report.oracle_count} {report.phi_n0_half} {report.thm2_claim} "
                f"{orders} {report.agreement_theorem2} {len(report.findings)}"
            )
    return _strict_exit(args, disagreement)


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(argv)
        # a reader that has closed stdout shows here, not at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the SIGPIPE recipe of the Python documentation: the rest of the
        # output goes to devnull, so the exit flush raises nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE


def _run(argv: list[str] | None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        return args.run(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND


if __name__ == "__main__":
    sys.exit(main())
