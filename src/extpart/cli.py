"""Command-line front end.

Exit codes are a stable contract: 0 for a positive answer, 1 for a
negative answer, 2 for input errors, 3 for an exceeded resource budget.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import genset as gs
from .access import access_proportion, starvation_set
from .errors import InputError, ResourceLimitError
from .extend import is_1ext_cograph, is_1ext_mw, is_1ext_oracle_report
from .graphs import (
    Graph,
    complete_multipartite,
    gen_hardness_gadget,
    gen_interval_extremal,
    gen_multipartite_extremal,
)
from .io import (
    EDGE_LIST,
    ADJACENCY_JSON,
    GraphDocument,
    format_dot,
    format_partition_text,
    format_tree,
    graph_to_document,
    parse_graph_text,
    parse_partition_text,
    serialize_graph_document,
)
from .moddecomp import decompose, is_cograph, modular_width
from .partition import chi_1ext, verify_partition


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_graph(path: str) -> tuple[Graph, GraphDocument]:
    doc = parse_graph_text(_read_text(path))
    return doc.to_graph(), doc


def _labels(doc: GraphDocument, vertices) -> str:
    return " ".join(doc.vertex_label(v) for v in vertices)


def cmd_test(args: argparse.Namespace) -> int:
    g, doc = _load_graph(args.input)
    method = args.method
    if method in ("auto", "cograph", "mw"):
        tree = decompose(g) if g.n else None
        if g.n == 0:
            print("1-extendable: yes")
            print("alpha: 0")
            print("method: trivial")
            return 0
        if method == "auto":
            method = "cograph" if is_cograph(tree) else "mw"
        report = is_1ext_cograph(tree) if method == "cograph" else is_1ext_mw(g, tree)
    else:
        report = is_1ext_oracle_report(g)
    print(f"1-extendable: {'yes' if report.is_1ext else 'no'}")
    print(f"alpha: {report.alpha}")
    print(f"method: {method}")
    if not report.is_1ext:
        print(f"starved: {_labels(doc, starvation_set(g))}")
        return 1
    return 0


def cmd_chi(args: argparse.Namespace) -> int:
    g, doc = _load_graph(args.input)
    result = chi_1ext(g, max_k=args.max_k)
    if result is None:
        print(f"chi_1ext > {args.max_k}")
        return 1
    k, part = result
    print(f"chi_1ext: {k}")
    if args.emit_partition:
        Path(args.emit_partition).write_text(format_partition_text(part))
    if args.dot:
        Path(args.dot).write_text(format_dot(g, part, doc.names))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    g, _ = _load_graph(args.input)
    part = parse_partition_text(_read_text(args.partition), g.n)
    ok = verify_partition(g, part)
    print(f"valid 1-extendable partition: {'yes' if ok else 'no'}")
    return 0 if ok else 1


def cmd_pv(args: argparse.Namespace) -> int:
    g, doc = _load_graph(args.input)
    text = args.theta
    # Fraction() would also read underscores and non-ASCII digits
    if not text.isascii() or "_" in text:
        raise InputError(f"bad theta {text!r}: ASCII digits only, no underscores")
    try:
        theta = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad theta {text!r}") from exc
    profile = access_proportion(g, theta)

    def show(x: Fraction) -> str:
        return f"{float(x):.6g}" if args.float else str(x)

    # render every line first, so a failure prints nothing
    try:
        lines = [f"theta: {show(theta)}", "vertex\tp\tlimit"]
        lines += [
            f"{doc.vertex_label(v)}\t{show(profile.p[v])}\t{show(profile.limit_p[v])}"
            for v in range(g.n)
        ]
    except (OverflowError, ValueError) as exc:
        raise InputError(f"at theta {text!r} a value is too large to print") from exc
    if profile.starved:
        lines.append(f"starved: {_labels(doc, profile.starved)}")
    print("\n".join(lines))
    return 0


def _parse_sizes(text: str) -> list[int]:
    try:
        return [int(x) for x in text.replace(",", " ").split()]
    except ValueError as exc:
        raise InputError(f"bad size list {text!r}") from exc


def cmd_gen(args: argparse.Namespace) -> int:
    parts = None
    if args.family == "multipartite-extremal":
        if args.k is None or args.k < 0:
            raise InputError("multipartite-extremal needs --k >= 0")
        g = gen_multipartite_extremal(args.k)
        parts = [1 << i for i in range(args.k + 1)]
    elif args.family == "interval-extremal":
        if args.k is None or args.k < 1:
            raise InputError("interval-extremal needs --k >= 1")
        g = gen_interval_extremal(args.k)
    elif args.family == "multipartite":
        if not args.sizes:
            raise InputError("multipartite needs --sizes")
        sizes = _parse_sizes(args.sizes)
        g, _ = complete_multipartite(sizes)
        parts = sizes
    else:
        if not args.input:
            raise InputError("hardness needs --input with the base graph")
        if args.k is None or args.k < 2:
            raise InputError("hardness needs --k >= 2")
        base, _ = _load_graph(args.input)
        g = gen_hardness_gadget(base, args.k)
    fmt = ADJACENCY_JSON if args.json else EDGE_LIST
    doc = graph_to_document(g, fmt=fmt, parts=parts if args.json else None)
    sys.stdout.write(serialize_graph_document(doc))
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    g, _ = _load_graph(args.input)
    tree = decompose(g)
    print(format_tree(tree.root))
    print(f"mw={modular_width(tree)}")
    return 0


def cmd_genset(args: argparse.Namespace) -> int:
    if args.targets is not None:
        if args.k is None:
            raise InputError("--targets needs -k as well")
        inst = gs.GenSetInstance(tuple(_parse_sizes(args.targets)), args.k)
    else:
        inst = gs.parse_instance_text(_read_text(args.instance))
    log_bound = (math.ceil(math.log2(inst.alpha_max)) if inst.alpha_max > 1 else 0) + 1
    if inst.k >= log_bound:
        sol = gs.binary_solution(inst.alpha_max, inst.targets)
        print(f"generators: {' '.join(str(x) for x in sol.generators)}")
        print("method: binary (powers of two always generate)")
    else:
        sol = gs.solve(inst)
        if sol is None:
            print("infeasible")
            return 1
        print(f"generators: {' '.join(str(x) for x in sol.generators)}")
        print("method: exhaustive")
    for target, subset in zip(inst.targets, sol.subsets):
        terms = " + ".join(str(sol.generators[j]) for j in subset)
        print(f"target {target} = {terms}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extpart",
        description=(
            "Decide and construct partitions of conflict graphs into "
            "1-extendable classes, and compute CSMA access proportions. "
            "Graphs are read as 0-based edge lists (`p n m` header, "
            "`e u v` lines) or JSON documents. The modular width of a "
            "single vertex is reported as 1 by convention."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("test", help="test 1-extendability")
    p.add_argument("input", nargs="?", default="-", help="graph file or - for stdin")
    p.add_argument(
        "--method",
        choices=["auto", "oracle", "cograph", "mw"],
        default="auto",
    )
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("chi", help="compute the 1-extendable chromatic number")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--max-k", type=int, default=None)
    p.add_argument("--emit-partition", metavar="PATH", default=None)
    p.add_argument("--dot", metavar="PATH", default=None)
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("verify", help="verify a partition certificate")
    p.add_argument("input", help="graph file")
    p.add_argument("partition", help="partition file with `vertex color` lines")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("pv", help="per-vertex access proportions")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--theta", default="50", help="positive rational, e.g. 50 or 3/2")
    p.add_argument("--float", action="store_true", help="render values as floats")
    p.set_defaults(func=cmd_pv)

    p = sub.add_parser("gen", help="emit a generated graph family member")
    p.add_argument(
        "family",
        choices=[
            "multipartite-extremal",
            "interval-extremal",
            "multipartite",
            "hardness",
        ],
    )
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--sizes", default=None, help="part sizes, e.g. 2,3,4,7,9")
    p.add_argument("--input", default=None, help="base graph for hardness")
    p.add_argument("--json", action="store_true", help="emit a JSON document")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("decompose", help="modular decomposition and width")
    p.add_argument("input", nargs="?", default="-")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("genset", help="solve a generating-set instance")
    p.add_argument("--targets", default=None, help="e.g. '2 3 4 7 9'")
    p.add_argument("-k", type=int, default=None)
    p.add_argument(
        "--instance", default="-", help="instance file (`targets:` and `k:` lines)"
    )
    p.set_defaults(func=cmd_genset)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
