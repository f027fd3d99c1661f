"""The report commands (audit, minimality and arc-constraints), the
sequence loader with its size limits, and the constraint and audit
renderers.

The library returns report data; every text, tsv and JSON rendering of a
constraint or audit report lives here, and the runner (_run.py) holds the
identity and vector renderers.  Commands read the argparse namespace,
which holds the only defaults, and return (ok, report) to the runner,
which renders the report and maps every refusal to an exit code.

Only a report command's row in the runner's table names this module, so
verify-*, resolve, --help and usage errors never compile it.  main and
emit_report stay importable from here, where the benchmark reads them.
positivity.py and sequences.py load at the top, not inside the commands,
because the traced benchmark binds its spans through sys.modules right
after importing this module.  Only arc-constraints --diagram-check loads
diagram.py and skein.py.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ._parser import main  # noqa: F401  (re-exported)
from ._run import (  # noqa: F401  (emit_report re-exported)
    UsageError,
    _coeff_repr,
    _coeff_text,
    _json_document,
    emit_report,
    parse_index,
)
from .laurent import ZERO, LaurentPoly
from .positivity import (
    AuditReport,
    Constraint,
    ConstraintReport,
    minimality_constraints,
    q_constraints,
    structure_constant_audit,
)
from .sequences import CHEBYSHEV, POWER, Sequence, UniPoly

if TYPE_CHECKING:
    import argparse


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
        with open(spec, encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=unique)
    except OSError as exc:
        raise UsageError(f"cannot read sequence file {spec!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # Bad syntax, undecodable bytes and over-long ints are ValueErrors.
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
            return Sequence.custom({parse_index(k): poly(p) for k, p in polys.items()}, base=base)
    except ValueError as exc:
        raise UsageError(f"invalid sequence in {spec!r}: {exc}") from exc
    raise UsageError(f"sequence file {spec!r} must hold a list or an object")


# -- rendering -----------------------------------------------------------------


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
                        "value": _coeff_repr(x.value if isinstance(x, Constraint) else ZERO, q1),
                        "required": cone if isinstance(x, Constraint) else "identity",
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
        if isinstance(x, Constraint):
            rows.append((x.label, _coeff_text(x.value, q1), cone, mark))
        else:
            rows.append((x.label, "exact", "identity", mark))
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


def _cmd_audit(args: argparse.Namespace) -> tuple[bool, AuditReport]:
    _check_size("audit", "--max-n", args.max_n, MAX_AUDIT_N)
    report = structure_constant_audit(load_sequence(args.seq), args.max_n)
    return report.ok(args.q1), report


def _cmd_minimality(args: argparse.Namespace) -> tuple[bool, ConstraintReport]:
    _check_size("minimality", "--n", args.n, MAX_MINIMALITY_N)
    report = minimality_constraints(load_sequence(args.seq), args.n)
    return report.ok(args.q1), report


def _cmd_arc_constraints(args: argparse.Namespace) -> tuple[bool, ConstraintReport]:
    n, k_max = args.n, args.k_max
    _check_size("arc-constraints", "--n", n, MAX_ARC_N)
    if k_max is not None and k_max < 1:
        raise UsageError("arc-constraints needs --k-max >= 1")
    report = q_constraints(
        load_sequence(args.seq), n, k_max, diagram_check=args.diagram_check, cap=args.cap
    )
    return report.ok(args.q1), report


def _check_size(command: str, flag: str, value: int, limit: int) -> None:
    """Refuse a size flag below 1 or above its limit, before any work."""
    if value < 1:
        raise UsageError(f"{command} needs {flag} >= 1")
    if value > limit:
        raise UsageError(f"{command} takes {flag} <= {limit}, got {value}")


# Size limits of the report commands: at each, every built-in sequence stays
# within 4 s and 150 MiB.  A fresh interpreter (median of 5, CPython 3.11, 2-CPU
# Xeon host) takes 0.07 s and 16 MiB for minimality --n 1000 and arc-constraints
# --seq chebyshev --n 1000, 0.37 s and 19 MiB for audit --max-n 100, and 1.07 s
# and 138 MiB for minimality --seq power --n 1000.
MAX_MINIMALITY_N = 1000
MAX_ARC_N = 1000
MAX_AUDIT_N = 100

# A packed value costs its whole exponent span.  At this span the worst
# sequence files found take 4.5 s and 20 MiB for audit --max-n 100, and
# 26 s and 135 MiB for minimality --n 1000 with a degree-1000 entry.
MAX_SEQUENCE_SPAN = 8
