"""The runner: one parsed command in, one exit code out.

_COMMANDS is the one table from a command to its code: each row names a
module, the command function in it and the renderer of its report.  run
calls the function, which returns (ok, report), and prints the report
through emit_report, the one renderer entry, or maps a refusal
(UsageError, MissingEntry, CrossingCapExceeded, FrontierBudgetExceeded)
to exit 2.  A row's module is imported on first use.  The commands that
resolve a diagram (verify-theta, verify-zkn, verify-d1 and resolve) live
here with the identity and vector renderers, so they load only the
resolver (diagram.py, skein.py and laurent.py), and verify-theta
sequences.py for chebyshev.  The report commands (audit, minimality and
arc-constraints) live in cli.py with their renderers, so cli.py, and the
positivity.py and sequences.py it loads, load only when one of them runs.

Exit codes are a stable contract: 0 all checks pass, 1 a verification or
constraint failed, 2 usage error (bad bounds, a size over its limit, bad
sequence file or a missing entry, crossing cap or frontier budget
exceeded).  Output is deterministic: basis elements in canonical order,
exponents ascending, byte-identical across runs.  --jobs changes nothing:
it is accepted for compatibility and checked to be >= 1, and no command
reads it further or starts a process.
"""

from __future__ import annotations

import re
import sys
from typing import TYPE_CHECKING

from ._cap import CrossingCapExceeded, FrontierBudgetExceeded, MissingEntry, refuse_over_cap
from ._record import Record

if TYPE_CHECKING:
    import argparse

    from .diagram import Diagram
    from .laurent import LaurentPoly
    from .skein import SkeinVector


class UsageError(Exception):
    """Bad bounds or configuration; maps to exit code 2."""


# -- rendering -----------------------------------------------------------------


def _json_document(obj) -> str:
    """A --format json report; json loads only when one is printed."""
    import json

    return json.dumps(obj, indent=2)


def _coeff_repr(c: LaurentPoly, q1: bool):
    """A coefficient's JSON value: an {exponent: int} object, or at q = 1 an int."""
    return c.eval_q1() if q1 else c.to_json_dict()


def _coeff_text(c: LaurentPoly, q1: bool) -> str:
    """A coefficient as text and tsv print it."""
    return str(c.eval_q1()) if q1 else str(c)


def render_vector(v: SkeinVector, q1: bool = False) -> str:
    if not q1:
        return str(v)
    parts = [
        _coeff_text(c, q1) + ("" if b.label() == "1" else f"·{b.label()}")
        for b, c in v.items()
    ]
    return " + ".join(parts) or "0"


def vector_json(v: SkeinVector, q1: bool = False) -> list[dict]:
    return [{"basis": b.label(), "coeff": _coeff_repr(c, q1)} for b, c in v.items()]


class IdentityReport(Record):
    """A verification command's report: one line per checked case."""

    __slots__ = ("name", "statement", "cases")  # str, str, tuple[CaseResult, ...]

    def ok(self) -> bool:
        return all(c.passes() for c in self.cases)


def _emit_vector(v: SkeinVector, fmt: str, q1: bool) -> str:
    if fmt == "json":
        return _json_document(vector_json(v, q1))
    if fmt == "tsv":
        rows = [f"{b.label()}\t{_coeff_text(c, q1)}" for b, c in v.items()]
        return "\n".join(rows) if rows else "0"
    return render_vector(v, q1)


def _emit_identity(report: IdentityReport, fmt: str, q1: bool) -> str:
    if fmt == "json":
        return _json_document(
            {
                "name": report.name,
                "statement": report.statement,
                "cases": [
                    {
                        "case": c.label,
                        "lhs": vector_json(c.lhs, q1),
                        "rhs": vector_json(c.rhs, q1),
                        "ok": c.passes(),
                    }
                    for c in report.cases
                ],
                "ok": report.ok(),
            }
        )
    if fmt == "tsv":
        lines = [
            f"{c.label}\t{render_vector(c.lhs, q1)}\t{render_vector(c.rhs, q1)}\t"
            f"{'PASS' if c.passes() else 'FAIL'}"
            for c in report.cases
        ]
        lines.append(f"RESULT\t{'PASS' if report.ok() else 'FAIL'}")
        return "\n".join(lines)
    lines = [f"{report.name}: {report.statement}"]
    for c in report.cases:
        mark = "PASS" if c.passes() else "FAIL"
        lines.append(f"  {c.label}:")
        lines.append(f"    lhs = {render_vector(c.lhs, q1)}")
        lines.append(f"    rhs = {render_vector(c.rhs, q1)}   -> {mark}")
    lines.append(f"RESULT: {'PASS' if report.ok() else 'FAIL'}")
    return "\n".join(lines)


# -- commands ------------------------------------------------------------------


def _cmd_verify_theta(args: argparse.Namespace) -> tuple[bool, IdentityReport]:
    if args.n < 1:
        raise UsageError("verify-theta needs --n >= 1")
    refuse_over_cap(f"theta:{args.n}", args.n, args.cap)
    from .sequences import chebyshev
    from .skein import CaseResult, theta_bullet, theta_transport_target

    cases = [
        CaseResult(f"n={j}", theta_bullet(chebyshev(j), cap=args.cap), theta_transport_target(j))
        for j in range(1, args.n + 1)
    ]
    report = IdentityReport(
        name="theta transport",
        statement=(
            "stacking the inner-to-outer arc above T_n(z) resolves to "
            "q^n·theta_n + q^-n·theta_-n"
        ),
        cases=tuple(cases),
    )
    return report.ok(), report


def _cmd_verify_zkn(args: argparse.Namespace) -> tuple[bool, IdentityReport]:
    k, n = args.k, args.n
    if not 1 <= k <= n:
        raise UsageError("verify-zkn needs 1 <= --k <= --n")
    from .skein import CaseResult, grid_identity

    lhs, rhs = grid_identity(k, n, args.cap)
    report = IdentityReport(
        name="grid quotient",
        statement=(
            f"x^{k} y_{n} equals q^-{k * n} z_({k},{n}) modulo the boundary "
            f"arcs p0p1..p{n - 1}p{n}"
        ),
        cases=(CaseResult(f"k={k},n={n}", lhs, rhs),),
    )
    return report.ok(), report


def _cmd_verify_d1(args: argparse.Namespace) -> tuple[bool, IdentityReport]:
    from .diagram import build_d1_xy
    from .skein import CaseResult, SkeinVector, full_boundary_ideal, resolve_all_mod

    d = build_d1_xy()
    lhs = resolve_all_mod(d, full_boundary_ideal(d.surface), cap=args.cap)
    report = IdentityReport(
        name="4-marked disk quotient",
        statement="x·y vanishes modulo the ideal of all four boundary arcs",
        cases=(CaseResult("xy mod boundary", lhs, SkeinVector()),),
    )
    return report.ok(), report


# core:K has no crossings, so no cap bounds it, yet it builds K loops
# (about 20 bytes each) before anything is printed.
MAX_CORE_LOOPS = 100_000

_INDEX = re.compile(r"0|[1-9][0-9]*")


def parse_index(text: str) -> int:
    """The one integer form of a diagram spec and a sequence-file key: a
    canonical nonnegative decimal, in ASCII digits with no sign, space,
    underscore or leading zero, so each number has exactly one spelling."""
    if not _INDEX.fullmatch(text):
        raise ValueError(f"{text!r} is not a canonical nonnegative decimal index")
    return int(text)


def _parse_diagram(spec: str, cap: int) -> Diagram:
    """Build the diagram a spec names, first refusing a spec whose
    crossings exceed the cap: theta:K has K, and xkyn:K,N has K*N.
    zkn:K,N is built crossingless, yet it counts the K*N crossings of
    the grid it is a state of, so one spec refuses the same sizes for
    both.  core:K is refused above MAX_CORE_LOOPS."""
    from . import diagram

    name, colon, args = spec.partition(":")
    try:
        if name == "core":
            k = parse_index(args)
            if k > MAX_CORE_LOOPS:
                raise UsageError(f"core:K takes K <= {MAX_CORE_LOOPS}, got {k}")
            return diagram.build_core_stack(k)
        if name == "theta":
            k = parse_index(args)
            refuse_over_cap(spec, k, cap)
            return diagram.build_theta_over_cores(k)
        if name in ("xkyn", "zkn"):
            k_s, _, n_s = args.partition(",")
            k, n = parse_index(k_s), parse_index(n_s)
            refuse_over_cap(spec, k * n, cap)
            build = diagram.build_xk_yn if name == "xkyn" else diagram.build_zkn
            return build(k, n)
        if name == "d1":
            if colon:
                raise ValueError("d1 takes no argument")
            return diagram.build_d1_xy()
        if name == "kink":
            if args not in ("+", "-"):
                raise UsageError("kink takes + or -")
            return diagram.build_kink(1 if args == "+" else -1)
    except CrossingCapExceeded:
        raise
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad diagram spec {spec!r}: {exc}") from exc
    raise UsageError(
        f"unknown diagram {spec!r}; use core:K, theta:K, xkyn:K,N, zkn:K,N, d1, kink:+|-"
    )


def _cmd_resolve(args: argparse.Namespace) -> tuple[bool, SkeinVector]:
    if not args.diagram:
        raise UsageError("resolve needs a diagram spec")
    d = _parse_diagram(args.diagram, args.cap)
    from .diagram import Disk, disk_surface
    from .skein import full_boundary_ideal, grid_ideal, resolve_all, resolve_all_mod

    if args.ideal == "none":
        vec = resolve_all(d, cap=args.cap)
    else:
        if not isinstance(d.surface, Disk):
            raise UsageError("ideals only apply to disk diagrams")
        n = (len(d.surface.points) - 2) // 2
        if args.ideal == "boundary":
            ideal = full_boundary_ideal(d.surface)
        elif n >= 1 and d.surface == disk_surface(n):
            ideal = grid_ideal(n)
        else:
            raise UsageError("--ideal grid needs a grid disk, p0..p{n+1}, q{n}..q1 with n >= 1")
        vec = resolve_all_mod(d, ideal, cap=args.cap)
    return True, vec


# Each command's row: its module, its function and its renderer.  A module
# is imported on first use, so only a report command loads cli.
_COMMANDS = {
    "verify-theta": ("_run", "_cmd_verify_theta", "_emit_identity"),
    "verify-zkn": ("_run", "_cmd_verify_zkn", "_emit_identity"),
    "verify-d1": ("_run", "_cmd_verify_d1", "_emit_identity"),
    "audit": ("cli", "_cmd_audit", "_emit_audit"),
    "minimality": ("cli", "_cmd_minimality", "_emit_constraints"),
    "arc-constraints": ("cli", "_cmd_arc_constraints", "_emit_constraints"),
    "resolve": ("_run", "_cmd_resolve", "_emit_vector"),
}


def _load(command: str):
    """The function and the renderer that command's row names."""
    from importlib import import_module

    module, function, renderer = _COMMANDS[command]
    owner = import_module(f"{__package__}.{module}")
    return getattr(owner, function), getattr(owner, renderer)


def emit_report(command: str, report, fmt: str, q1: bool = False) -> str:
    """A command's report rendered in the chosen format by the renderer
    its row names: the one renderer entry for every report."""
    return _load(command)[1](report, fmt, q1)


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command; returns the process exit code."""
    try:
        if args.jobs < 1:
            raise UsageError("--jobs must be >= 1")
        if args.cap < 0:
            raise UsageError("--cap must be >= 0")
        ok, report = _load(args.command)[0](args)
    except (UsageError, MissingEntry) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CrossingCapExceeded, FrontierBudgetExceeded) as exc:
        print(f"refusing to expand: {exc}", file=sys.stderr)
        return 2
    # Every input is parsed by now, under CPython's limit on int/str
    # conversion (3.10.7 on), so the report prints exact integers of any
    # length; the limit comes back for the caller.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        print(emit_report(args.command, report, args.fmt, args.q1))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0 if ok else 1
