"""Command-line entry point: verification commands, audits, report emission.

The library returns report data; every text, tsv and JSON rendering lives
here.  Commands read the argparse namespace, which holds the only defaults.

Exit codes are a stable contract: 0 all checks pass, 1 a verification or
constraint failed, 2 usage error (bad bounds, a size over its limit, bad
sequence file, crossing cap exceeded), raised before any work.  Output is
deterministic: basis elements in canonical order, exponents ascending,
byte-identical across runs and for every --jobs value.

The parser and the entry live in _parser.py; build_parser and main are
re-exported here.  Only the commands that resolve a diagram (verify-*,
resolve, and arc-constraints --diagram-check) load diagram.py and
skein.py, so audit, minimality and arc-constraints run without them.
"""

from __future__ import annotations

import re
import sys
from typing import TYPE_CHECKING

from ._cap import CrossingCapExceeded, refuse_over_cap
from ._parser import build_parser, main  # noqa: F401  (re-exported)
from ._record import Record
from .laurent import LaurentPoly
from .positivity import (
    CONSISTENT,
    AuditReport,
    ConstraintReport,
    grid_identity,
    minimality_constraints,
    q_constraints,
    structure_constant_audit,
)
from .sequences import (
    CHEBYSHEV,
    POWER,
    MissingEntry,
    Sequence,
    UniPoly,
    chebyshev,
)

if TYPE_CHECKING:
    import argparse

    from .diagram import Diagram
    from .skein import SkeinVector


_INDEX = re.compile(r"0|[1-9][0-9]*")


class UsageError(Exception):
    """Bad bounds or configuration; maps to exit code 2."""


_BUILT_IN = {s.name: s for s in (CHEBYSHEV, POWER)}


def load_sequence(spec: str) -> Sequence:
    """Resolve "chebyshev", "power", or a JSON file of coefficient arrays.

    The file holds either a list of coefficient arrays indexed by degree,
    or {"base": "chebyshev"|"power", "polys": {"n": [coeffs...]}} to
    override single entries, where "n" is a canonical decimal index (no
    sign, space or leading zero).  An object with any other key, or with
    a key repeated, is refused.  A coefficient is an int or an
    {exponent: int} object; all exponents, 0 included, lie at most
    MAX_SEQUENCE_SPAN apart.
    """
    if spec in _BUILT_IN:
        return _BUILT_IN[spec]

    def unique(pairs: list[tuple[str, object]]) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise UsageError(f"sequence file {spec!r} repeats the key {key!r}")
            obj[key] = value
        return obj

    import json

    try:
        with open(spec) as fh:
            data = json.load(fh, object_pairs_hook=unique)
    except OSError as exc:
        raise UsageError(f"cannot read sequence file {spec!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"sequence file {spec!r} is not valid JSON: {exc}") from exc

    ends = [0, 0]  # the lowest and highest exponent read so far

    def coeff(entry) -> LaurentPoly:
        if isinstance(entry, int) and not isinstance(entry, bool):
            return LaurentPoly(entry)
        if isinstance(entry, dict):
            c = LaurentPoly.from_json_dict(entry)
            for e, _ in c.items():
                ends[:] = min(ends[0], e), max(ends[1], e)
            if ends[1] - ends[0] > MAX_SEQUENCE_SPAN:
                raise UsageError(
                    f"sequence file {spec!r} takes q-exponents at most "
                    f"{MAX_SEQUENCE_SPAN} apart, got {ends[0]} to {ends[1]}"
                )
            return c
        raise UsageError(f"bad coefficient entry {entry!r} in {spec!r}")

    def poly(entries) -> UniPoly:
        if not isinstance(entries, list):
            raise UsageError(f"polynomial entries must be arrays in {spec!r}")
        return UniPoly([coeff(e) for e in entries])

    try:
        if isinstance(data, list):
            return Sequence.custom({i: poly(p) for i, p in enumerate(data)})
        if isinstance(data, dict):
            if unknown := data.keys() - {"base", "polys"}:
                raise UsageError(f"unknown key {min(unknown)!r} in sequence file {spec!r}")
            base = data.get("base")
            if base is not None:
                if not isinstance(base, str) or base not in _BUILT_IN:
                    raise UsageError(f"unknown base sequence {base!r}")
                base = _BUILT_IN[base]
            polys = data.get("polys", {})
            if not isinstance(polys, dict):
                raise UsageError(f'"polys" in {spec!r} must be an object')
            for key in polys:
                if not _INDEX.fullmatch(key):
                    raise UsageError(
                        f"polys key {key!r} in {spec!r} is not a canonical "
                        "nonnegative decimal index"
                    )
            return Sequence.custom({int(k): poly(p) for k, p in polys.items()}, base=base)
    except ValueError as exc:
        raise UsageError(f"invalid sequence in {spec!r}: {exc}") from exc
    raise UsageError(f"sequence file {spec!r} must hold a list or an object")


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


class CaseResult(Record):
    """One checked case of an identity: its label and both sides."""

    __slots__ = ("label", "lhs", "rhs")  # str, SkeinVector, SkeinVector

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


class IdentityReport(Record):
    """A verification command's report: one line per checked case."""

    __slots__ = ("name", "statement", "cases")  # str, str, tuple[CaseResult, ...]

    def ok(self) -> bool:
        return all(c.ok for c in self.cases)


def emit_report(report, fmt: str, q1: bool = False) -> str:
    """Deterministic rendering of any report object in the chosen format."""
    if isinstance(report, IdentityReport):
        return _emit_identity(report, fmt, q1)
    if isinstance(report, ConstraintReport):
        return _emit_constraints(report, fmt, q1)
    if isinstance(report, AuditReport):
        return _emit_audit(report, fmt, q1)
    from .skein import SkeinVector  # a vector report has loaded it already

    if not isinstance(report, SkeinVector):
        raise TypeError(f"no renderer for {type(report).__name__}")
    if fmt == "json":
        return _json_document(vector_json(report, q1))
    if fmt == "tsv":
        rows = [f"{b.label()}\t{_coeff_text(c, q1)}" for b, c in report.items()]
        return "\n".join(rows) if rows else "0"
    return render_vector(report, q1)


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
                        "ok": c.ok,
                    }
                    for c in report.cases
                ],
                "ok": report.ok(),
            }
        )
    if fmt == "tsv":
        lines = [
            f"{c.label}\t{render_vector(c.lhs, q1)}\t{render_vector(c.rhs, q1)}\t"
            f"{'PASS' if c.ok else 'FAIL'}"
            for c in report.cases
        ]
        lines.append(f"RESULT\t{'PASS' if report.ok() else 'FAIL'}")
        return "\n".join(lines)
    lines = [f"{report.name}: {report.statement}"]
    for c in report.cases:
        mark = "PASS" if c.ok else "FAIL"
        lines.append(f"  {c.label}:")
        lines.append(f"    lhs = {render_vector(c.lhs, q1)}")
        lines.append(f"    rhs = {render_vector(c.rhs, q1)}   -> {mark}")
    lines.append(f"RESULT: {'PASS' if report.ok() else 'FAIL'}")
    return "\n".join(lines)


def _emit_constraints(report: ConstraintReport, fmt: str, q1: bool) -> str:
    conclusion = report.conclusion_for(q1)
    cone = "Z_+" if q1 else "R_+"
    if fmt == "json":
        return _json_document(
            {
                "subject": report.subject,
                "a": None if report.a is None else _coeff_repr(report.a, q1),
                "c": [_coeff_repr(x, q1) for x in report.c],
                "table": [
                    {"symbol": s, "coeff": _coeff_repr(v, q1)} for s, v in report.table
                ],
                "constraints": [
                    {
                        "label": x.label,
                        "value": _coeff_repr(x.value, q1),
                        "required": "identity" if x.kind == "identity" else cone,
                        "ok": x.passes(q1),
                    }
                    for x in report.constraints
                ],
                "conclusion": conclusion,
            }
        )
    rows = []
    for x in report.constraints:
        mark = "PASS" if x.passes(q1) else "FAIL"
        if x.kind == "identity":
            rows.append((x.label, "exact", "identity", mark))
        else:
            rows.append((x.label, _coeff_text(x.value, q1), cone, mark))
    if fmt == "tsv":
        lines = ["\t".join(r) for r in rows]
        lines.append(f"conclusion\t{conclusion}")
        return "\n".join(lines)
    lines = [f"{report.subject}"]
    if report.a is not None:
        lines.append(f"  P_1 constant a = {_coeff_text(report.a, q1)}")
    lines.append(
        "  coefficients: [" + ", ".join(_coeff_text(x, q1) for x in report.c) + "]"
    )
    width = max((len(r[0]) for r in rows), default=0)
    for label, value, req, mark in rows:
        lines.append(f"  {label.ljust(width)}  in {req}:  {value}   -> {mark}")
    lines.append(f"conclusion: {conclusion}")
    return "\n".join(lines)


def _emit_audit(report: AuditReport, fmt: str, q1: bool) -> str:
    rows, ok = report.rows, report.ok(q1)
    if fmt == "json":
        return _json_document(
            {
                "rows": [
                    {"m": r.m, "n": r.n, "all_positive": r.passes(q1)} for r in rows
                ],
                "ok": ok,
            }
        )
    lines = [
        f"{r.m}\t{r.n}\t{'PASS' if r.passes(q1) else 'FAIL'}" for r in rows
    ]
    if fmt == "tsv":
        lines.append(f"RESULT\t{'PASS' if ok else 'FAIL'}")
        return "\n".join(lines)
    head = "m\tn\tall structure constants positive"
    return "\n".join([head, *lines, f"RESULT: {'PASS' if ok else 'FAIL'}"])


# -- commands ------------------------------------------------------------------


def _cmd_verify_theta(args: argparse.Namespace) -> tuple[bool, str]:
    if args.n < 1:
        raise UsageError("verify-theta needs --n >= 1")
    refuse_over_cap(f"theta:{args.n}", args.n, args.cap)
    from .skein import theta_bullet, theta_transport_target

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
    return report.ok(), emit_report(report, args.fmt, args.q1)


def _cmd_verify_zkn(args: argparse.Namespace) -> tuple[bool, str]:
    k, n = args.k, args.n
    if not 1 <= k <= n:
        raise UsageError("verify-zkn needs 1 <= --k <= --n")
    refuse_over_cap(f"xkyn:{k},{n}", k * n, args.cap)
    lhs, rhs = grid_identity(k, n, args.cap)
    report = IdentityReport(
        name="grid quotient",
        statement=(
            f"x^{k} y_{n} equals q^-{k * n} z_({k},{n}) modulo the boundary "
            f"arcs p0p1..p{n - 1}p{n}"
        ),
        cases=(CaseResult(f"k={k},n={n}", lhs, rhs),),
    )
    return report.ok(), emit_report(report, args.fmt, args.q1)


def _cmd_verify_d1(args: argparse.Namespace) -> tuple[bool, str]:
    from .diagram import build_d1_xy
    from .skein import SkeinVector, full_boundary_ideal, resolve_all_mod

    d = build_d1_xy()
    lhs = resolve_all_mod(d, full_boundary_ideal(d.surface), cap=args.cap)
    report = IdentityReport(
        name="4-marked disk quotient",
        statement="x·y vanishes modulo the ideal of all four boundary arcs",
        cases=(CaseResult("xy mod boundary", lhs, SkeinVector.zero()),),
    )
    return report.ok(), emit_report(report, args.fmt, args.q1)


def _cmd_audit(args: argparse.Namespace) -> tuple[bool, str]:
    _check_size("audit", "--max-n", args.max_n, MAX_AUDIT_N)
    report = structure_constant_audit(load_sequence(args.seq), args.max_n)
    return report.ok(args.q1), emit_report(report, args.fmt, args.q1)


def _cmd_minimality(args: argparse.Namespace) -> tuple[bool, str]:
    _check_size("minimality", "--n", args.n, MAX_MINIMALITY_N)
    report = minimality_constraints(load_sequence(args.seq), args.n)
    ok = report.conclusion_for(args.q1) == CONSISTENT
    return ok, emit_report(report, args.fmt, args.q1)


def _cmd_arc_constraints(args: argparse.Namespace) -> tuple[bool, str]:
    n, k_max = args.n, args.k_max
    _check_size("arc-constraints", "--n", n, MAX_ARC_N)
    if k_max is not None and k_max < 1:
        raise UsageError("arc-constraints needs --k-max >= 1")
    if args.diagram_check:
        # The largest grid checked is x^k y_n with k = min(k_max, n).
        k = min(k_max or n, n)
        refuse_over_cap(f"xkyn:{k},{n}", k * n, args.cap)
    report = q_constraints(
        load_sequence(args.seq), n, k_max, diagram_check=args.diagram_check, cap=args.cap
    )
    ok = report.conclusion_for(args.q1) == CONSISTENT
    return ok, emit_report(report, args.fmt, args.q1)


def _check_size(command: str, flag: str, value: int, limit: int) -> None:
    """Refuse a size flag below 1 or above its limit, before any work."""
    if value < 1:
        raise UsageError(f"{command} needs {flag} >= 1")
    if value > limit:
        raise UsageError(f"{command} takes {flag} <= {limit}, got {value}")


# core:K has no crossings, so no cap bounds it, yet it builds K loops
# (about 20 bytes each) before anything is printed.
MAX_CORE_LOOPS = 100_000

# Size limits of the report commands: at each, every built-in sequence stays
# within 4 s and 150 MiB (Python 3.11, 2-CPU host).  minimality --n 1000 takes
# 0.2 s and 17 MiB, arc-constraints --seq chebyshev --n 1000 0.5 s and 17 MiB,
# audit --max-n 100 1.3 s and 20 MiB; minimality --seq power 2.4 s and 139 MiB.
MAX_MINIMALITY_N = 1000
MAX_ARC_N = 1000
MAX_AUDIT_N = 100

# A packed value costs its whole exponent span.  At this span the worst
# sequence files found take 4.5 s and 20 MiB for audit --max-n 100, and
# 26 s and 135 MiB for minimality --n 1000 with a degree-1000 entry.
MAX_SEQUENCE_SPAN = 8


def _parse_diagram(spec: str, cap: int) -> Diagram:
    """Build the diagram a spec names, first refusing a spec whose
    crossings exceed the cap: theta:K has K, and xkyn:K,N and zkn:K,N
    have K*N (zkn resolves them while it is built).  core:K is refused
    above MAX_CORE_LOOPS."""
    from . import diagram

    name, _, args = spec.partition(":")
    try:
        if name == "core":
            k = int(args)
            if k > MAX_CORE_LOOPS:
                raise UsageError(f"core:K takes K <= {MAX_CORE_LOOPS}, got {k}")
            return diagram.build_core_stack(k)
        if name == "theta":
            k = int(args)
            refuse_over_cap(spec, k, cap)
            return diagram.build_theta_over_cores(k)
        if name in ("xkyn", "zkn"):
            k_s, _, n_s = args.partition(",")
            k, n = int(k_s), int(n_s)
            if k > 0 and n > 0:
                refuse_over_cap(spec, k * n, cap)
            build = diagram.build_xk_yn if name == "xkyn" else diagram.build_zkn
            return build(k, n)
        if name == "d1":
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


def _cmd_resolve(args: argparse.Namespace) -> tuple[bool, str]:
    if not args.diagram:
        raise UsageError("resolve needs a diagram spec")
    d = _parse_diagram(args.diagram, args.cap)
    from .diagram import Disk
    from .skein import full_boundary_ideal, grid_ideal, resolve_all, resolve_all_mod

    if args.ideal == "none":
        vec = resolve_all(d, cap=args.cap)
    else:
        if not isinstance(d.surface, Disk):
            raise UsageError("ideals only apply to disk diagrams")
        ideal = (
            full_boundary_ideal(d.surface)
            if args.ideal == "boundary"
            else grid_ideal((len(d.surface.points) - 2) // 2)
        )
        vec = resolve_all_mod(d, ideal, cap=args.cap)
    return True, emit_report(vec, args.fmt, args.q1)


_COMMANDS = {
    "verify-theta": _cmd_verify_theta,
    "verify-zkn": _cmd_verify_zkn,
    "verify-d1": _cmd_verify_d1,
    "audit": _cmd_audit,
    "minimality": _cmd_minimality,
    "arc-constraints": _cmd_arc_constraints,
    "resolve": _cmd_resolve,
}


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command; returns the process exit code."""
    try:
        if args.jobs < 1:
            raise UsageError("--jobs must be >= 1")
        if args.cap < 0:
            raise UsageError("--cap must be >= 0")
        ok, text = _COMMANDS[args.command](args)
    except (UsageError, MissingEntry) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CrossingCapExceeded as exc:
        print(f"refusing to expand: {exc}", file=sys.stderr)
        return 2
    print(text)
    return 0 if ok else 1
