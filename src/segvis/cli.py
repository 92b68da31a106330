"""Command-line front end.

Exit codes: 0 success, 2 validation error, 3 reproduction or sweep
mismatch, a bounds report that flags a defect, or no certificate could be
built, 4 result bracketed by the search-node budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import compress
from pathlib import Path

from . import golden
from .constructions import (
    STRATEGY_FALLBACK,
    ConstructionError,
    build_certificate,
    certificate_json,
    double_chain_blocker,
)
from .geometry import (
    GenerationError,
    PointSet,
    cacerola_points,
    gen_convex,
    gen_double_chain,
    gen_random_general_position,
    load_pointset,
)
from .graph import (
    INFINITY,
    _upper_neighbours,
    build_disjointness_graph,
    diameter,
    diameter_bounds,
    is_connected,
    to_dot,
)
from .solver import (
    BOUNDS_SEARCH_NODES,
    _witness_from_blockers,
    check_bounds_report,
    mu_exact,
    mu_report_json,
)
from .svg import render_svg

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_MISMATCH = 3
EXIT_BRACKETED = 4

# `mu` warns above this many vertices (n = 28); larger exact runs want a
# search-node budget.  At 378 vertices exact mu spent 97,584 nodes (2.3 s)
# on convex:28 and 17,055 on random:28:1; at 496, convex:32 took 250,547
# nodes (11 s).
DESK_SCALE_WARN = 378

# Generator specs (and `sweep --n-max`) may ask for at most this many
# points: n = 64 builds its 2,016-vertex graph in about 1 s, n = 100 in 7 s
# and n = 128 in 31 s.  Point files are not capped.
MAX_GEN_POINTS = 64


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_VALIDATION):
        super().__init__(message)
        self.code = code


def parse_gen_spec(spec: str) -> PointSet:
    """Compact generator specs: convex:N, double-chain:P,Q,
    random:N:SEED[:BOUND], cacerola."""
    if spec == "cacerola":
        return cacerola_points()
    kind, _, rest = spec.partition(":")
    try:
        if kind == "convex":
            n = int(rest)
            _check_gen_size(n)
            return gen_convex(n)
        if kind == "double-chain":
            p, q = (int(t) for t in rest.split(","))
            _check_gen_size(p + q)
            return gen_double_chain(p, q)
        if kind == "random":
            n, seed, *bound = (int(t) for t in rest.split(":"))
            if len(bound) > 1:
                raise ValueError("more than three fields")
            _check_gen_size(n)
            return gen_random_general_position(n, seed, bound[0] if bound else 10000)
    except ValueError as exc:
        raise CliError(f"malformed generator spec {spec!r}: {exc}") from exc
    raise CliError(f"unknown generator spec {spec!r}")


def _check_gen_size(n: int) -> None:
    if n > MAX_GEN_POINTS:
        raise CliError(f"generator size {n} exceeds the limit of {MAX_GEN_POINTS} points")


def resolve_pointset(args) -> PointSet:
    if args.points:
        if args.points == "cacerola":
            return cacerola_points()
        try:
            return load_pointset(args.points)
        except FileNotFoundError as exc:
            raise CliError(f"point file not found: {args.points}") from exc
        except OSError as exc:
            raise CliError(f"cannot read point file {args.points}: {exc}") from exc
        except ValueError as exc:
            raise CliError(f"invalid point file {args.points}: {exc}") from exc
    try:
        return parse_gen_spec(args.gen)
    except (GenerationError, ValueError) as exc:
        raise CliError(f"generator failed: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise CliError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _json_dumps(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _graph_json_dumps(g, **extra) -> str:
    """``_json_dumps`` of ``to_json_dict(g)`` updated with ``extra``.  The
    encoder writes each edge over four lines, token by token; here one join
    per row of ``_upper_neighbours`` over the vertex id strings renders them,
    with no tuple or ``str`` call per edge, spliced into the dump of the rest."""
    names = list(map(str, range(g.n_vertices)))
    rows = []
    for u, (row, sel) in enumerate(zip(g.adj, _upper_neighbours(g))):
        first = u + 1
        if row >> first:
            head = f"    [\n      {u},\n      "
            rows.append(head + f"\n    ],\n{head}".join(compress(names[first:], sel)) + "\n    ]")
    data = {"n_points": g.n_points, "vertices": [list(s) for s in g.vertices], **extra}
    if not rows:
        return _json_dumps({**data, "edges": []})
    edges = ",\n".join(rows)
    return _json_dumps({**data, "edges": "\0"}).replace('"\\u0000"', f"[\n{edges}\n  ]", 1)


def cmd_build(args) -> int:
    ps = resolve_pointset(args)
    g = build_disjointness_graph(ps)
    if args.format == "dot":
        _emit(to_dot(g), args.out)
        return EXIT_OK
    d = diameter(g)
    if args.format == "json":
        diam = None if d == INFINITY else int(d)
        _emit(_graph_json_dumps(g, diameter=diam, connected=is_connected(g)), args.out)
    else:
        _emit(
            f"points: {ps.n}\nvertices: {g.n_vertices}\nedges: {g.n_edges}\n"
            f"connected: {is_connected(g)}\n"
            f"diameter: {'inf' if d == INFINITY else int(d)}\n",
            args.out,
        )
    return EXIT_OK


def cmd_certificate(args) -> int:
    ps = resolve_pointset(args)
    cert = build_certificate(ps)
    if args.format == "svg":
        _emit(render_svg(ps, cert.blockers), args.out)
    elif args.format == "text":
        case = f"({cert.case})" if cert.case is not None else ""
        _emit(
            f"strategy: {cert.strategy}{case}\nsize: {cert.size}\n"
            f"mu_lower_bound: {cert.mu_lower_bound}\nverified: {cert.verified}\n"
            f"S: {' '.join(f'{i}-{j}' for i, j in cert.blockers)}\n",
            args.out,
        )
    else:
        _emit(_json_dumps(certificate_json(cert)), args.out)
    return EXIT_OK


def _check_node_budget(budget: int | None) -> None:
    if budget is not None and budget < 1:
        raise CliError(f"--node-budget must be positive, got {budget}")


def cmd_mu(args) -> int:
    _check_node_budget(args.node_budget)
    ps = resolve_pointset(args)
    if ps.n < 5:
        raise CliError("mu needs n >= 5 (the graph must be connected)")
    g = build_disjointness_graph(ps)
    if g.n_vertices > DESK_SCALE_WARN and args.node_budget is None:
        print(
            f"warning: {g.n_vertices} vertices is beyond desk scale; "
            "consider --node-budget",
            file=sys.stderr,
        )
    cert = build_certificate(ps, g)
    witness = _witness_from_blockers(g, cert.blockers)
    res = mu_exact(g, witness_hint=witness, node_budget=args.node_budget)
    data = mu_report_json(res, g)
    data["certificate"] = certificate_json(cert)
    _emit(_json_dumps(data), args.out)
    return EXIT_OK if res.mu is not None else EXIT_BRACKETED


def cmd_bounds(args) -> int:
    _check_node_budget(args.node_budget)
    ps = resolve_pointset(args)
    extra = None
    if args.gen and args.gen.startswith("double-chain:"):
        p, q = (int(t) for t in args.gen.partition(":")[2].split(","))
        if p >= 2 and q >= 6:
            extra = double_chain_blocker(p, q)
    report = check_bounds_report(ps, extra_blockers=extra, node_budget=args.node_budget)
    _emit(_json_dumps(report), args.out)
    return EXIT_OK if report["consistent"] else EXIT_MISMATCH


def cmd_reproduce(args) -> int:
    rows = golden.run_golden_suite()
    all_pass = all(r["pass"] for r in rows)
    if args.format == "json" or args.out:
        _emit(_json_dumps({"rows": rows, "all_pass": all_pass}), args.out)
    if args.format != "json":
        width = max(len(r["name"]) for r in rows)
        table = []
        for r in rows:
            mark = "PASS" if r["pass"] else "FAIL"
            table.append(f"{r['name']:<{width}}  {mark}  expected={r['expected']!r} computed={r['computed']!r}")
        table.append("all rows pass" if all_pass else "MISMATCH")
        sys.stdout.write("\n".join(table) + "\n")
    return EXIT_OK if all_pass else EXIT_MISMATCH


def cmd_sweep(args) -> int:
    # an empty sweep checks nothing, so it must not report clean
    if args.count < 1:
        raise CliError(f"--count must be at least 1, got {args.count}")
    if args.n_min < 5:
        raise CliError(f"--n-min must be at least 5 (certificates need n >= 5), got {args.n_min}")
    if args.n_min > args.n_max:
        raise CliError(f"--n-min {args.n_min} exceeds --n-max {args.n_max}")
    _check_gen_size(args.n_max)
    violations, strategy_counts, fallbacks, unverified = [], {}, [], []
    for n in range(args.n_min, args.n_max + 1):
        lo, hi = diameter_bounds(n)
        for k in range(args.count):
            seed = args.seed + 1000 * n + k
            ps = gen_random_general_position(n, seed=seed, bound=args.bound)
            g = build_disjointness_graph(ps)
            d = diameter(g)
            if not (lo <= d <= hi):
                violations.append({"n": n, "seed": seed, "diameter": d, "points": ps.coords()})
            try:
                cert = build_certificate(ps, g)
            except ConstructionError as exc:
                unverified.append({"n": n, "seed": seed, "error": str(exc), "points": ps.coords()})
                continue
            key = cert.strategy + (f"({cert.case})" if cert.case is not None else "")
            strategy_counts[key] = strategy_counts.get(key, 0) + 1
            if cert.strategy == STRATEGY_FALLBACK:
                blockers = [list(s) for s in cert.blockers]
                fallbacks.append({"n": n, "seed": seed, "points": ps.coords(), "blockers": blockers})
            if not cert.verified or cert.size > 9:
                unverified.append({"n": n, "seed": seed, "points": ps.coords()})
    clean = not (violations or unverified or fallbacks)
    stats = {
        "instances": (args.n_max - args.n_min + 1) * args.count,
        "diameter_violations": violations,
        "strategy_counts": strategy_counts,
        "fallback_invocations": len(fallbacks),
        "fallbacks": fallbacks,
        "unverified": unverified,
        "clean": clean,
    }
    _emit(_json_dumps(stats), args.out)
    return EXIT_OK if clean else EXIT_MISMATCH


def _add_input_opts(p: argparse.ArgumentParser) -> None:
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--points", help="point-set file (.json/.csv) or 'cacerola'")
    grp.add_argument("--gen", help="generator spec: convex:N | double-chain:P,Q | random:N:SEED[:BOUND] | cacerola")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segvis",
        description="Disjointness graphs of planar segments: diameters, "
        "mutual-visibility numbers, blocker-set certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build the graph and report its metrics")
    _add_input_opts(p)
    p.add_argument("--format", choices=["text", "json", "dot"], default="text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("certificate", help="construct a verified blocker set")
    _add_input_opts(p)
    p.add_argument("--format", choices=["json", "svg", "text"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_certificate)

    p = sub.add_parser("mu", help="exact mutual-visibility number")
    _add_input_opts(p)
    p.add_argument("--node-budget", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_mu)

    p = sub.add_parser(
        "bounds", help="certificate bound vs exact mu vs a-priori upper bound"
    )
    _add_input_opts(p)
    p.add_argument("--node-budget", type=int, default=BOUNDS_SEARCH_NODES)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("reproduce", help="run the golden reproduction table")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("sweep", help="random-instance diameter/certificate sweep")
    p.add_argument("--n-min", type=int, default=5)
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=int, default=10000)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (GenerationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
