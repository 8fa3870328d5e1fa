"""Command-line surface.

Subcommands:

* ``compute FILE``       - Mostar index and per-edge contributions of an
                           edge-list file.
* ``family SPEC``        - build a named family (``spider:n=8,r=3``,
                           ``C:n=7,a=1,b=1``, ``cat:d=4,3,2``, ...) and
                           write it as edge list, DOT or JSON.
* ``enumerate``          - stream nonisomorphic trees of an order, with
                           optional class filters, as NDJSON or edge lists.
* ``transform NAME ...`` - apply a tree surgery and print both index
                           values (and the hypothesis flag where one
                           applies).
* ``verify``             - run registered extremal claims over an order
                           range; exit 1 when any valid instance fails,
                           2 when the range holds no instance at all.
                           The ok/fail/invalid/empty counts go to stderr.
* ``bench``              - time the linear-pass index against the
                           quadratic definitional oracle.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Optional

from . import io as tio
from .enumeration import DEFAULT_CAP, ConstraintSpec, _selected, random_tree
from .families import ParameterError, build, parse_family_spec
from .transforms import (
    contract_with_pendant,
    move_pendants_to_path_neighbor,
    outcome,
    rebalance_paths,
    relocate_pendant,
    shift_branch_to_end,
)
from .tree import mostar_bfs, mostar_fast
from .verify import REGISTRY, check_claim, reports_to_csv, reports_to_json_obj

DEFAULT_SEED = 20220721


@contextmanager
def _output(out: Optional[str]):
    """The stream for ``--out``: stdout for None or ``-``, else the file."""
    if out is None or out == "-":
        yield sys.stdout
    else:
        with open(out, "w") as fh:
            yield fh


_ROW = "  (%d, %d)  n_u=%d  n_v=%d  psi=%d\n"
# One split as json.dumps(..., indent=2) writes it inside the "splits" list.
_JSON_ROW = ('    {\n      "edge": [\n        %d,\n        %d\n      ],\n'
             '      "n_u": %d,\n      "n_v": %d,\n      "psi": %d\n    }')


def _cmd_compute(args) -> int:
    if args.format == "json" and args.total_only:  # before --out is opened, like any bad usage
        raise ValueError("--total-only applies to the text output; JSON always lists every split")
    t = tio.read_edge_list(args.file)
    total, splits = (mostar_bfs if args.oracle else mostar_fast)(t)
    with _output(args.out) as fh:
        if args.format == "json":  # the bytes of json.dumps(obj, indent=2), row block by block
            fh.write('{\n  "n": %d,\n  "mostar": %d,\n  "splits": [' % (t.n, total))
            if len(splits):
                fh.write("\n")
                tio._write_rows(fh, splits._blocks(), _JSON_ROW, ",\n")
                fh.write("\n  ")
            fh.write("]\n}\n")
        else:
            fh.write(f"Mo = {total}\n")
            if not args.total_only:
                tio._write_rows(fh, splits._blocks(), _ROW)
    return 0


def _cmd_family(args) -> int:
    t = build(parse_family_spec(args.spec))  # before --out is opened: a bad spec leaves no file
    with _output(args.out) as fh:
        if args.format == "dot":
            fh.write(tio.to_dot(t))
        elif args.format == "json":  # the bytes of json.dumps(tree_record(t)), row block by block
            fh.write('{"n": %d, "edges": [' % t.n)
            tio._write_rows(fh, [tio._edge_array(t)], "[%d, %d]", ", ")
            fh.write("]}\n")
        else:
            tio.write_edge_list(t, fh)
    return 0


_FILTER_HELP = (
    "odd=K (2K odd-degree vertices), deg2=T, branch=K, ppaths=K:R "
    "(K pendent paths of length R), degseq=D1,D2,..., series-reduced, all-odd"
)


def _parse_filter(text: str) -> ConstraintSpec:
    key, _, value = text.partition("=")
    key = key.strip().lower()
    try:
        if key == "odd":
            return ConstraintSpec.odd_count(2 * int(value))
        if key == "deg2":
            return ConstraintSpec.deg2_count(int(value))
        if key == "branch":
            return ConstraintSpec.branch_count(int(value))
        if key == "ppaths":
            k, _, r = value.partition(":")
            return ConstraintSpec.pendent_path_count(int(k), int(r))
        if key == "degseq":
            return ConstraintSpec.degree_sequence(int(d) for d in value.split(","))
        if key in ("series-reduced", "series_reduced"):
            return ConstraintSpec.series_reduced()
        if key in ("all-odd", "all_odd"):
            return ConstraintSpec.all_odd()
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"bad filter {text!r}; expected one of: {_FILTER_HELP}")


def _window(selected, offset: int, limit: Optional[int]):
    """The parents of vertices 1..n-1 of selected rows ``offset`` to
    ``offset + limit - 1``, a batch at a time; no batch is read once the
    window is full."""
    seen, stop = 0, sys.maxsize if limit is None else offset + limit
    while seen < stop and (batch := next(selected, None)):
        table, rows = batch
        yield table.parent[rows[max(offset - seen, 0):stop - seen], 1:]
        seen += len(rows)


def _cmd_enumerate(args) -> int:
    for flag, value in (("--offset", args.offset), ("--limit", args.limit)):
        if value is not None and value < 0:
            raise ValueError(f"{flag} must be >= 0, got {value}")
    constraint = args.filter if args.filter is not None else ConstraintSpec.unconstrained()
    window = _window(_selected(args.n, constraint, args.cap), args.offset, args.limit)
    with _output(args.out) as fh:
        count = tio._write_rows(fh, window, tio._record_row(args.format, args.n))
    print(f"{count} trees", file=sys.stderr)
    return 0


def _cmd_transform(args) -> int:
    t = tio.read_edge_list(args.file)
    name = args.name
    if name == "contract":
        u, v = (int(x) for x in args.edge.split(","))
        result = outcome(t, contract_with_pendant(t, (u, v)))
    elif name == "rebalance":
        result = outcome(t, rebalance_paths(t, args.at, args.long, args.short))
    elif name == "move-pendants":
        t1, t2 = move_pendants_to_path_neighbor(t, args.x, args.y)
        r1, r2 = outcome(t, t1), outcome(t, t2)
        print(f"Mo(T) = {r1.mo_before}")
        print(f"Mo(T') = {r1.mo_after}  (leaves at x={args.x} moved)")
        print(f"Mo(T'') = {r2.mo_after}  (leaves at y={args.y} moved)")
        print(f"max increases: {max(r1.mo_after, r2.mo_after) > r1.mo_before}")
        return 0
    elif name == "shift":
        path = [int(x) for x in args.path.split(",")]
        result = shift_branch_to_end(t, path, args.i, args.c)
    else:  # relocate
        result = outcome(t, relocate_pendant(t, args.leaf, args.frm, args.to))
    print(f"Mo before = {result.mo_before}")
    print(f"Mo after  = {result.mo_after}")
    print(f"hypothesis held: {result.hypothesis_held}")
    if args.out:
        with _output(args.out) as fh:
            tio.write_edge_list(result.after, fh)
    return 0


# Each report status, in the order of the stderr counts, and its text label.
_STATUS_TEXT = {"ok": "ok", "fail": "FAIL", "invalid": "INVALID ({})", "empty": "EMPTY CLASS"}


def _cmd_verify(args) -> int:
    ids = list(REGISTRY) if args.claim == "all" else [args.claim]
    unknown = [cid for cid in ids if cid not in REGISTRY]
    if unknown:
        print(f"error: unknown claim(s) {unknown}; known: {', '.join(REGISTRY)}",
              file=sys.stderr)
        return 2
    if args.n_min > args.n_max:
        print(f"error: empty order range: --n-min {args.n_min} > --n-max {args.n_max}",
              file=sys.stderr)
        return 2
    reports = []
    for n in range(args.n_min, args.n_max + 1):  # each order's table is filled once
        for cid in ids:
            reports.extend(check_claim(cid, n, n, cap=args.cap,
                                       maximal_census=args.maximal_census))
    if not reports:
        print(f"error: claim {args.claim} has no instances at orders "
              f"{args.n_min}..{args.n_max}", file=sys.stderr)
        return 2
    reports.sort(key=lambda r: (r.claim_id, r.n, sorted(r.params.items()), r.direction))
    if args.format == "json":
        text = json.dumps(reports_to_json_obj(reports), indent=2) + "\n"
    elif args.format == "csv":
        text = reports_to_csv(reports)
    else:
        lines = []
        for r in reports:
            params = " ".join(f"{k}={v}" for k, v in r.params.items())
            lines.append(
                f"{r.claim_id} n={r.n} {params} [{r.direction}] "
                f"brute={r.brute_value} claimed={r.claimed_value} "
                f"unique={r.argopt_unique} {_STATUS_TEXT[r.status].format(r.invalid)}")
        text = "\n".join(lines) + "\n"
    with _output(args.out) as fh:
        fh.write(text)
    # invalid and empty-class instances pass vacuously; they are counted apart
    counts = Counter(r.status for r in reports)
    print(" ".join(f"{s}={counts[s]}" for s in _STATUS_TEXT), file=sys.stderr)
    if counts["fail"]:
        print(f"{counts['fail']} failing instance(s)", file=sys.stderr)
        return 1
    return 0


def _cmd_bench(args) -> int:
    t0 = time.perf_counter()
    t = random_tree(args.n, args.seed)
    construct_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    fast_total, _ = mostar_fast(t)
    fast_s = time.perf_counter() - t0
    print(f"n = {args.n}")
    print(f"random_tree: {construct_s:.4f} s  (generate, validate and orient)")
    print(f"mostar_fast: Mo = {fast_total}  ({fast_s:.4f} s)")
    if args.with_oracle or args.n <= args.oracle_max:
        t0 = time.perf_counter()
        bfs_total, _ = mostar_bfs(t)
        bfs_s = time.perf_counter() - t0
        agree = "agree" if bfs_total == fast_total else "DISAGREE"
        print(f"mostar_bfs:  Mo = {bfs_total}  ({bfs_s:.4f} s)  [{agree}]")
        if bfs_total != fast_total:
            return 1
    else:
        print(f"mostar_bfs skipped (n > {args.oracle_max}; use --with-oracle to force)")
    return 0


_TRANSFORM_OUT = "write the transformed edge list to this path (- for stdout; default none)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mostar",
        description="Mostar index of trees: computation, families, surgeries, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="Mostar index of an edge-list file")
    p.add_argument("file", help="edge-list file (first line n, then n-1 lines 'u v')")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--total-only", action="store_true", help="omit the per-edge table (text output only)")
    p.add_argument("--oracle", action="store_true",
                   help="use the quadratic definitional oracle instead of the linear pass")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("family", help="build a named tree family")
    p.add_argument("spec", help="e.g. path:n=7 star:n=9 spider:n=8,r=3 cat:d=4,3,2 "
                                "C:n=7,a=1,b=1 F:n=9,a=1,b=1 srk:n=10,k=2,r=3 A:n=10,r=2,a=2,b=1")
    p.add_argument("--format", choices=["edgelist", "dot", "json"], default="edgelist")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("enumerate", help="stream nonisomorphic trees of an order")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--filter", type=_parse_filter, help=_FILTER_HELP)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help=f"enumeration guard (default {DEFAULT_CAP})")
    p.add_argument("--offset", type=int, default=0, help="skip the first OFFSET classes")
    p.add_argument("--limit", type=int, help="emit at most LIMIT classes")
    p.add_argument("--format", choices=["ndjson", "edgelist"], default="ndjson")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("transform", help="apply a tree surgery to an edge-list file")
    tsub = p.add_subparsers(dest="name", required=True)

    q = tsub.add_parser("contract", help="contract a non-pendent edge, add a leaf")
    q.add_argument("file")
    q.add_argument("--edge", required=True, metavar="U,V")
    q.add_argument("--out", help=_TRANSFORM_OUT)
    q.set_defaults(func=_cmd_transform)

    q = tsub.add_parser("rebalance", help="move one vertex from the short leg to the long leg")
    q.add_argument("file")
    q.add_argument("--at", type=int, required=True, metavar="U")
    q.add_argument("--long", type=int, required=True, metavar="L", dest="long")
    q.add_argument("--short", type=int, required=True, metavar="M", dest="short")
    q.add_argument("--out", help=_TRANSFORM_OUT)
    q.set_defaults(func=_cmd_transform)

    q = tsub.add_parser("move-pendants", help="push pendant leaves toward the other vertex")
    q.add_argument("file")
    q.add_argument("--x", type=int, required=True)
    q.add_argument("--y", type=int, required=True)
    q.set_defaults(func=_cmd_transform)

    q = tsub.add_parser("shift", help="re-attach off-path subtrees to the path's first vertex")
    q.add_argument("file")
    q.add_argument("--path", required=True, metavar="V0,V1,...")
    q.add_argument("--i", type=int, required=True)
    q.add_argument("--c", type=int, default=1)
    q.add_argument("--out", help=_TRANSFORM_OUT)
    q.set_defaults(func=_cmd_transform)

    q = tsub.add_parser("relocate", help="re-attach a pendant leaf at another vertex")
    q.add_argument("file")
    q.add_argument("--leaf", type=int, required=True)
    q.add_argument("--from", type=int, required=True, dest="frm")
    q.add_argument("--to", type=int, required=True)
    q.add_argument("--out", help=_TRANSFORM_OUT)
    q.set_defaults(func=_cmd_transform)

    p = sub.add_parser("verify", help="check registered extremal claims by brute force")
    p.add_argument("--claim", default="all",
                   help="claim id (%s) or 'all'" % ", ".join(REGISTRY))
    p.add_argument("--n-min", type=int, default=5)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--maximal-census", action="store_true",
                   help="count pendent paths by full runs only (the stricter reading)")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="time mostar_fast against mostar_bfs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--oracle-max", type=int, default=2000,
                   help="run the quadratic oracle only up to this order")
    p.add_argument("--with-oracle", action="store_true", help="force the oracle")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
