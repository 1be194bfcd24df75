"""Command-line front end: urn distributions and the law suite.

Exit codes: 0 on success (and when all laws pass), 1 when a law check
fails, 2 for usage or parse errors, for carriers, tuple lengths and
multiset sizes past the ceiling the law grid uses by default and when
the reader closes stdout early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import draws, multisets, split
from .algebra import mzip_kernel
from .core import (
    DEFAULT_CARRIER_LIMIT,
    CarrierTooLarge,
    carrier_limit,
    coproduct_finset,
    make_finset,
    state_kernel,
)
from .multisets import Multiset
from .textio import dist_to_json, parse_dist, parse_urn, render_dist_lines


class UsageError(Exception):
    pass


# Each query parses and checks its arguments, then returns the size that names
# it in an error, a thunk that builds its kernel, and the point whose row is printed.


def query_multinomial(args):
    d = parse_dist(args.dist)
    return ("--k", args.k), lambda: draws.multinomial_kernel(state_kernel(d), args.k), ()


def query_hypergeometric(args):
    urn = parse_urn(args.urn)
    if args.draws > urn.size:
        raise UsageError(f"cannot draw {args.draws} from an urn of size {urn.size}")
    return ("urn size", urn.size), lambda: draws.hypergeometric_kernel(urn.base, urn.size, args.draws), urn


def query_dd(args):
    urn = parse_urn(args.urn)
    if urn.size < 1:
        raise UsageError("draw-and-delete needs a nonempty urn")
    return ("urn size", urn.size), lambda: multisets.dd_kernel(urn.base, urn.size - 1), urn


def query_flrn(args):
    urn = parse_urn(args.urn)
    if urn.size < 1:
        raise UsageError("frequentist learning needs a nonempty urn")
    return ("urn size", urn.size), lambda: multisets.flrn_kernel(urn.base, urn.size), urn


def query_arr(args):
    urn = parse_urn(args.urn)
    return ("urn size", urn.size), lambda: multisets.arr_kernel(urn.base, urn.size), urn


def query_mzip(args):
    left = parse_urn(args.left)
    right = parse_urn(args.right)
    if left.size != right.size:
        raise UsageError("mzip needs two urns of the same size")
    return ("urn size", left.size), lambda: mzip_kernel(left.base, right.base, left.size), (left, right)


def query_msplit(args):
    urn = parse_urn(args.urn)
    left_labels = [lab.strip() for lab in args.left.split(",") if lab.strip()]
    unknown = [lab for lab in left_labels if lab not in urn.base.index]
    if unknown:
        raise UsageError(f"--left labels not in the urn: {', '.join(unknown)}")
    left = set(left_labels)
    X = make_finset([lab for lab in urn.base if lab in left])
    Y = make_finset([lab for lab in urn.base if lab not in left])
    XY = coproduct_finset((X, Y))
    tagged_urn = Multiset(XY, tuple(urn.count(lab.value) for lab in XY))
    return ("urn size", urn.size), lambda: split.msplit_kernel(X, Y, urn.size), tagged_urn


def cmd_query(args) -> int:
    """Build the query's kernel under the size guard and print its row at the query's point."""
    (name, size), build, point = args.query(args)
    try:
        kernel = build()
    except CarrierTooLarge as exc:
        raise UsageError(f"{name} {size} is too large: {exc}") from None
    row = kernel.row(point)
    if args.format == "json":
        print(json.dumps(dist_to_json(row)))
    else:
        for line in render_dist_lines(row):
            print(line)
    return 0


def cmd_laws(args) -> int:
    # imported here so that query commands do not load the law runner
    from .laws import GridSpec, run_laws

    grid = GridSpec()
    if args.max_set is not None:
        if args.max_set < 1:
            raise UsageError("--max-set must be at least 1")
        grid = grid.replace(
            x_sizes=tuple(s for s in grid.x_sizes if s <= args.max_set),
            y_sizes=tuple(s for s in grid.y_sizes if s <= args.max_set),
        )
    if args.max_k is not None:
        if args.max_k < 1:
            raise UsageError("--max-k must be at least 1")
        grid = grid.replace(k_values=tuple(k for k in grid.k_values if k <= args.max_k))
    report = run_laws(grid=grid, selection=args.law)  # an unknown law id raises KeyError before any law runs
    if args.json:
        print(json.dumps(report.to_json()))
    else:
        print(report.table())
    return 0 if report.total_failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finstoch",
        description="Exact urn distributions and the equational law suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("multinomial", help="draws with replacement from a distribution")
    p.add_argument("--dist", required=True, help="distribution, e.g. 'h:1/2,t:1/2'")
    p.add_argument("--k", type=int, required=True, help="number of draws")
    queries = [(p, query_multinomial)]

    p = sub.add_parser("hypergeometric", help="draws without replacement from an urn")
    p.add_argument("--urn", required=True, help="urn, e.g. 'a:2,b:1'")
    p.add_argument("--draws", type=int, required=True)
    queries.append((p, query_hypergeometric))

    p = sub.add_parser("dd", help="one uniform draw-and-delete step")
    p.add_argument("--urn", required=True)
    queries.append((p, query_dd))

    p = sub.add_parser("flrn", help="normalise an urn to a distribution")
    p.add_argument("--urn", required=True)
    queries.append((p, query_flrn))

    p = sub.add_parser("arr", help="uniform arrangements of an urn into a sequence")
    p.add_argument("--urn", required=True)
    queries.append((p, query_arr))

    p = sub.add_parser("mzip", help="multizip of two equal-size urns")
    p.add_argument("--left", required=True, help="first urn")
    p.add_argument("--right", required=True, help="second urn")
    queries.append((p, query_mzip))

    p = sub.add_parser("msplit", help="split an urn over a two-part alphabet")
    p.add_argument("--urn", required=True)
    p.add_argument("--left", required=True, help="comma-separated labels of the left part")
    queries.append((p, query_msplit))

    for p, query in queries:
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(fn=cmd_query, query=query)

    p = sub.add_parser("laws", help="run the law suite on the instance grid")
    p.add_argument("--max-set", type=int, default=None, help="cap carrier sizes")
    p.add_argument("--max-k", type=int, default=None, help="cap multiset sizes")
    p.add_argument("--law", action="append", default=None, help="law id to run (repeatable)")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(fn=cmd_laws)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalise other codes
        return 2 if exc.code not in (0,) else 0
    try:
        with carrier_limit(DEFAULT_CARRIER_LIMIT):
            code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early; send what is still buffered to
        # devnull, so that the flush at interpreter exit cannot raise again
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return 2
    except (UsageError, KeyError, ValueError, OverflowError, CarrierTooLarge) as exc:
        print("error:", *exc.args, file=sys.stderr)  # a KeyError's message, unquoted
        return 2


if __name__ == "__main__":
    sys.exit(main())
