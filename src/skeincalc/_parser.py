"""The command-line parser and the entry point.

This module imports only argparse, gc, sys and _cap, and imports the
runner (_run.py) only once the arguments parse, so --help, every
subcommand's --help and every argparse usage error (exit 2) end before
any library module loads.  The runner loads cli.py only for a report
command.

main() with no arguments is the process entry (python -m skeincalc and
the installed skeincalc script).  On every way out, a report, a refusal,
--help or a usage error, it freezes the heap (gc.freeze) just before the
process exits, so the interpreter's final collections skip every object
still alive instead of walking them.  What that gives up is finalizing
cyclic garbage left at exit, which CPython does not promise anyway, and
skeincalc holds no file or other resource by then.  main(argv), the
in-process call, leaves the collector alone.
"""

from __future__ import annotations

import argparse
import gc
import sys

from ._cap import DEFAULT_CROSSING_CAP


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skeincalc",
        description=(
            "Exact Kauffman bracket skein calculator: identity verification "
            "by full crossing resolution, structure-constant audits, and "
            "positivity constraint reports."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument(
            "--format",
            dest="fmt",
            choices=("text", "json", "tsv"),
            default="text",
            help="report format (default text)",
        )
        p.add_argument(
            "--cap",
            type=int,
            default=DEFAULT_CROSSING_CAP,
            help=f"crossing-count cap for full expansion (default {DEFAULT_CROSSING_CAP})",
        )
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="accepted for compatibility (must be >= 1); no effect on output or processes",
        )
        p.add_argument(
            "--q1", action="store_true", help="specialize all reports at q = 1"
        )

    p = sub.add_parser("verify-theta", help="check the arc transport identity")
    p.add_argument("--n", type=int, required=True, help="check levels 1..n")
    common(p)

    p = sub.add_parser("verify-zkn", help="check the grid quotient identity")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)

    p = sub.add_parser("verify-d1", help="check xy = 0 mod all boundary arcs")
    common(p)

    p = sub.add_parser("audit", help="structure-constant positivity audit")
    p.add_argument("--seq", default="chebyshev")
    p.add_argument("--max-n", dest="max_n", type=int, required=True)
    common(p)

    p = sub.add_parser("minimality", help="loop minimality constraint report")
    p.add_argument("--seq", default="chebyshev")
    p.add_argument("--n", type=int, required=True)
    common(p)

    p = sub.add_parser("arc-constraints", help="arc sequence constraint report")
    p.add_argument("--seq", default="power")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k-max", dest="k_max", type=int, default=None)
    p.add_argument(
        "--diagram-check",
        action="store_true",
        help="re-derive the quotient weights with the resolution engine",
    )
    common(p)

    p = sub.add_parser("resolve", help="fully resolve a builder diagram")
    p.add_argument(
        "diagram", help="core:K, theta:K, xkyn:K,N, zkn:K,N, d1, or kink:+|-"
    )
    p.add_argument(
        "--ideal",
        choices=("none", "boundary", "grid"),
        default="none",
        help="discard states landing in this boundary-arc ideal",
    )
    common(p)
    # CPython 3.13 wraps the generated top-level usage line differently, so
    # it is written out as 3.10-3.12 wrap it: --help and usage errors print
    # the same bytes on every supported Python.  Subcommand usage lines
    # took their prefix when add_subparsers ran, before this.
    indent = " " * len("usage: skeincalc ")
    parser.usage = f"%(prog)s [-h]\n{indent}{{{','.join(sub.choices)}}}\n{indent}..."
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        from ._run import run

        code = run(args)
    finally:
        if argv is None:
            gc.freeze()  # the process exits next; see the module docstring
    if argv is None:
        sys.exit(code)
    return code
