"""Command-line front end: generate, compile, measure, verify, certify.

Every subcommand is deterministic for a fixed argument vector and seed;
reports and CSV files are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Iterable

from .bp import ORDER_SEARCH_CAP, best_order_size, compiled_size, nfbdd_compile, uniformize
from .covers import constants, coverlb_bound, extract_cut_cover, min_dis_cover
from .fileio import (
    bp_lines,
    fmt_num,
    parse_bp,
    parse_cnf,
    parse_graph,
    write_certificate,
    write_instance_bundle,
)
from .graphs import ENUMERATION_CAP, cnf_from_graph, path_graph
from .instances import (
    canonical_tree_decomposition,
    complete_binary_tree,
    family_compiled_size,
    family_edge_count,
    family_exponent_limit,
    family_params,
    hard_family_instance,
    tree_product,
)
from .suites import SUITES
from .widths import SUBSET_DP_CAP, dmw_exact, mw_exact

MATERIALIZE_LIMIT = 100_000


def _write(path: str, chunks: Iterable[str]) -> None:
    """Write the chunks to path one after another, never joined in memory."""
    with open(path, "w") as f:
        f.writelines(chunks)


def _write_out(path: str, chunks: Iterable[str]) -> None:
    _write(path, chunks)
    print(f"wrote {path}")


def _check_writable(path: str | None) -> None:
    """Open path for appending and close it again, so that an unwritable
    output fails before any work; a file this creates is removed again."""
    if path:
        existed = os.path.lexists(path)
        open(path, "a").close()
        if not existed:
            os.unlink(path)


def cmd_gen(args: argparse.Namespace) -> int:
    params = family_params(args.k, args.r, allow_small_r=args.allow_small_r)
    edges = family_edge_count(params)
    print(f"k={params.k} y={params.y} r={params.r} p={params.p} "
          f"n={params.n} edges={edges}")
    if params.n > MATERIALIZE_LIMIT:
        print(f"instance exceeds {MATERIALIZE_LIMIT} vertices; "
              "sizes reported without materialization")
        return 0
    t, h = complete_binary_tree(params.r), path_graph(params.path_len)
    g = tree_product(t, h)
    td = canonical_tree_decomposition(t, h)
    for path in write_instance_bundle(args.out, params, g, cnf_from_graph(g), td):
        print(f"wrote {path}")
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    cnf = parse_cnf(Path(args.cnf).read_text())
    _check_writable(args.out)
    order = None
    if args.best_order:
        _, order = best_order_size(cnf, cap=min(ORDER_SEARCH_CAP, args.cap_subset))
    elif args.order:
        order = tuple(int(t) for t in args.order.split(","))
    if args.out:
        y = nfbdd_compile(cnf, order)
        nodes, edges = y.size_nodes, y.size_edges
    else:
        nodes, edges, _ = compiled_size(cnf, order)
    used = order if order is not None else tuple(range(cnf.num_vars))
    print("order=" + ",".join(str(v) for v in used))
    print(f"nodes={nodes} edges={edges}")
    if args.out:
        _write_out(args.out, bp_lines(y))
    return 0


def _cmd_width(args: argparse.Namespace) -> int:
    """mw and dmw: args.width is the subcommand's exact width function."""
    g = parse_graph(Path(args.graph).read_text())
    res = args.width(g, cap=args.cap_subset)
    print(f"{args.command}={res.value}")
    print("order=" + ",".join(str(v) for v in res.witness_order))
    return 0


def cmd_uniformize(args: argparse.Namespace) -> int:
    z = parse_bp(Path(args.bp).read_text())
    _check_writable(args.out)
    u = uniformize(z)
    print(f"nodes={z.size_nodes}->{u.size_nodes} "
          f"edges={z.size_edges}->{u.size_edges}")
    if args.out:
        _write_out(args.out, bp_lines(u))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; available: "
              + ", ".join(sorted(SUITES)), file=sys.stderr)
        return 2
    results = SUITES[args.suite](args.seed)
    failed = 0
    for res in results:
        if res.ok:
            print(f"PASS {res.name}")
        else:
            failed += 1
            print(f"FAIL {res.name}: {res.detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def cmd_cover(args: argparse.Namespace) -> int:
    g = parse_graph(Path(args.graph).read_text())
    q, cover = min_dis_cover(g, args.t, cap=args.cap_vars)
    bound = coverlb_bound(g.max_degree(), args.t)
    print(f"q={q}")
    for b in cover:
        print("dis " + " ".join(str(v) for v in sorted(b)))
    print(f"bound={fmt_num(float(bound))}")
    return 0 if q >= bound else 1


def cmd_certify(args: argparse.Namespace) -> int:
    z = parse_bp(Path(args.bp).read_text())
    g = parse_graph(Path(args.graph).read_text())
    _check_writable(args.out)
    try:
        cert = extract_cut_cover(z, g)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"q={cert.q} dmw={cert.dmw} bound={fmt_num(cert.bound)}")
    if args.out:
        _write_out(args.out, [write_certificate(cert)])
    return 0 if cert.q >= cert.bound - 1e-9 else 1


def cmd_experiment(args: argparse.Namespace) -> int:
    import warnings

    if args.r_min > args.r_max:
        print(f"error: --r-min {args.r_min} exceeds --r-max {args.r_max}; "
              "the sweep has no rows", file=sys.stderr)
        return 2
    _check_writable(args.out)
    _check_writable(args.stats)
    rows: list[list[str]] = []
    stats: list[dict] = []
    a5 = constants(5).a_x
    prev_edges = prev_nodes = prev_n = 0
    failures: list[str] = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        limit = round(family_exponent_limit(args.k), 4) if args.stats else None
    for r in range(args.r_min, args.r_max + 1):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            params = family_params(args.k, r, allow_small_r=True)
            certified = params.n <= args.cap_subset  # only these rows build the graph
            g = cnf = best = None
            if certified:
                g, _ = hard_family_instance(args.k, r, allow_small_r=True)
                cnf = cnf_from_graph(g)
            if params.n <= min(ORDER_SEARCH_CAP, args.cap_subset):
                best = best_order_size(cnf)
            order = best[1] if best and args.order == "best" else None
            try:
                if order is None:
                    nodes, edges, widths = family_compiled_size(args.k, r)
                else:
                    nodes, edges, widths = compiled_size(cnf, order)
                y = nfbdd_compile(cnf, order) if certified else None
            except ValueError as exc:
                raise ValueError(f"row k={args.k} r={r}: {exc}") from None
        best_edges = str(best[0]) if best else "-"
        dmw_s = q_s = lb_s = "-"
        if certified:
            # a cap refusal is a usage error, as in `dmw`, not a failed row
            d = dmw_exact(g, cap=args.cap_subset).value
            dmw_s = str(d)
            try:
                lb = 2.0 ** (d / a5)
                lb_s = fmt_num(lb)
                cert = extract_cut_cover(y, g, d=d)
                q_s = str(cert.q)
                if cert.q < lb - 1e-9:  # as certify's exit status
                    failures.append(
                        f"r={r}: certificate q={q_s} is below the lower bound {lb_s}")
                if lb > nodes:
                    failures.append(
                        f"r={r}: lower bound {lb_s} exceeds node count {nodes}")
            except (ValueError, RuntimeError) as exc:
                failures.append(f"r={r}: {exc}")
        if args.order == "natural" and (edges < prev_edges or nodes < prev_nodes):
            failures.append(
                f"r={r}: compiled size shrank ({prev_edges},{prev_nodes}) -> "
                f"({edges},{nodes})")
        slope = None
        if prev_n:  # growth exponent against the previous row
            slope = round(math.log(nodes / prev_nodes) / math.log(params.n / prev_n), 4)
        stats.append({
            "k": args.k, "r": r, "n": params.n, "nodes": nodes, "edges": edges,
            "widest_level": max(widths, default=1),
            "mean_level_width": round(nodes / (params.n + 1), 4),
            "materialised": certified, "order": "natural" if order is None else "best",
            "slope": slope, "sizes": "closed-form" if order is None else "compiled",
            "exponent_limit": limit,
        })
        prev_edges, prev_nodes, prev_n = edges, nodes, params.n
        rows.append([str(args.k), str(r), str(params.n), str(edges), str(nodes),
                     best_edges, dmw_s, q_s, lb_s])
    csv_text = "k,r,n,edges,nodes,best_edges,dmw,q,lb\n"
    csv_text += "".join(",".join(row) + "\n" for row in rows)
    if args.out:
        _write_out(args.out, [csv_text])
    else:
        sys.stdout.write(csv_text)
    if args.stats:
        _write(args.stats, [json.dumps({"rows": stats}, indent=1) + "\n"])
    for msg in failures:
        print(f"ASSERT FAIL {msg}", file=sys.stderr)
    return 1 if failures else 0


_FLAGS = {
    "cap-vars": dict(type=int, default=ENUMERATION_CAP,
                     help="largest variable count for exhaustive enumeration"),
    "cap-subset": dict(type=int, default=SUBSET_DP_CAP,
                       help="largest vertex count for subset dynamic programs"),
    "seed": dict(type=int, default=0, help="random seed"),
    "out": dict(help="output file or directory"),
}


def _add_flags(sub: argparse.ArgumentParser, *names: str) -> None:
    """Declare the shared flags a subcommand reads."""
    for name in names:
        sub.add_argument(f"--{name}", **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bplab",
        description="Branching-program workbench: widths, compilation, "
                    "uniformization, covers, certificates.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen", help="generate a hard-family instance bundle")
    p.add_argument("--k", type=int, required=True, help="clique-width parameter k")
    p.add_argument("--r", type=int, required=True, help="tree height r")
    p.add_argument("--allow-small-r", action="store_true",
                   help="permit heights below the 5*ceil(log2 k) threshold")
    _add_flags(p, "out")
    p.set_defaults(func=cmd_gen)
    p.set_defaults(out=".")

    p = subs.add_parser("compile", help="compile a monotone 2-CNF into a diagram")
    p.add_argument("--cnf", required=True, help="DIMACS CNF input file")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--order", help="comma-separated variable order")
    which.add_argument("--best-order", action="store_true",
                       help="search all orders for the smallest diagram")
    _add_flags(p, "cap-subset", "out")
    p.set_defaults(func=cmd_compile)

    for name, width, what in (("mw", mw_exact, "matching width"),
                              ("dmw", dmw_exact, "distant matching width")):
        p = subs.add_parser(name, help=f"exact {what} of a graph")
        p.add_argument("--graph", required=True, help="DIMACS graph input file")
        _add_flags(p, "cap-subset")
        p.set_defaults(func=_cmd_width, width=width)

    p = subs.add_parser("uniformize", help="make a program uniform")
    p.add_argument("--bp", required=True, help="program input file")
    _add_flags(p, "out")
    p.set_defaults(func=cmd_uniformize)

    p = subs.add_parser("verify", help="run a named invariant suite")
    p.add_argument("--suite", required=True,
                   help="one of: " + ", ".join(sorted(SUITES)))
    _add_flags(p, "seed")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("cover", help="minimum DIS cover of a graph's clauses")
    p.add_argument("--graph", required=True, help="DIMACS graph input file")
    p.add_argument("--t", type=int, required=True, help="DIS size")
    _add_flags(p, "cap-vars")
    p.set_defaults(func=cmd_cover)

    p = subs.add_parser("certify", help="extract a cut-cover certificate")
    p.add_argument("--bp", required=True, help="uniform program input file")
    p.add_argument("--graph", required=True, help="DIMACS graph input file")
    _add_flags(p, "out")
    p.set_defaults(func=cmd_certify)

    p = subs.add_parser("experiment", help="family sweep with CSV output")
    p.add_argument("--k", type=int, default=6, help="family parameter k")
    p.add_argument("--r-min", type=int, default=1, help="smallest height")
    p.add_argument("--r-max", type=int, default=5, help="largest height")
    p.add_argument("--order", choices=("natural", "best"), default="natural",
                   help="variable order strategy for the size columns")
    p.add_argument("--stats", help="write per-row compile counts to this JSON file")
    _add_flags(p, "cap-subset", "out")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an unreadable input or an unwritable output
        print(f"error: {exc.filename or 'output'}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
