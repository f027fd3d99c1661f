"""Structure-constant positivity audits and minimality constraint extraction.

Two mechanical arguments live here.

For loops: on a surface carrying two simple closed curves z, z' meeting
once, the product P_1(z')P_n(z) expands over the basis fragment
{1, P_n(z), P_1(z'), P_1(z_(1,k)), P_1(z_(1,-k))} -- the transported
curves z_(1,+-k) replace z'T_k(z) with weights q^k, q^-k, and rewriting
each bare curve C as P_1(C) - a leaves a constant term

    d = -a*c_0 - sum_k a*c_k*(q^k + q^-k),

where P_1(t) = t + a and c_k are the coefficients of P_n over the
Chebyshev-style basis.  A positive basis forces every coefficient of the
expansion into the positive cone, and -d lands there too once a and all
c_k do; d and -d both positive means d = 0, and since the monic top
summand q^n + q^-n cannot vanish, a = 0.

For arcs: on the 2n+2-marked disk, Q_n(x)*y_n = sum_k c_k q^(-kn) z_(k,n)
modulo the boundary-arc ideal, with the z_(k,n) distinct surviving basis
elements, so every power-basis coefficient c_k of Q_n must be positive.
The q^(-kn) weights are cross-checked against the resolution engine on
request.

Reports never claim a sequence IS positive -- they certify violations or
consistency of these necessary conditions only.
"""

from __future__ import annotations

from ._record import Record
from .diagram import build_xk_yn, build_zkn
from .laurent import LaurentPoly, ONE, ZERO, q_power
from .sequences import CHEBYSHEV, POWER, SequenceSpec, to_basis
from .skein import (
    DEFAULT_CROSSING_CAP,
    SkeinVector,
    grid_ideal,
    normal_form,
    resolve_all_mod,
)

CONSISTENT = "consistent"
CONTRADICTION = "contradiction"
FORCES_A_ZERO = "forces a=0"


class CurveSymbol(Record):
    """A formal basis symbol of the loop-product expansion.

    kind is one of "unit", "pn_z", "p1_zprime", "p1_zpos", "p1_zneg";
    k is the winding index for the last two kinds.
    """

    __slots__ = ("kind", "k")  # str, int
    _defaults = {"k": 0}

    def sort_key(self):
        # Unit, P_n(z), P_1(z'), then the winding pairs by k, positive first.
        rank = {"unit": 0, "pn_z": 1, "p1_zprime": 2, "p1_zpos": 3, "p1_zneg": 3}
        return (rank[self.kind], self.k, self.kind == "p1_zneg")

    def label(self) -> str:
        if self.kind == "unit":
            return "1"
        if self.kind == "pn_z":
            return "P_n(z)"
        if self.kind == "p1_zprime":
            return "P_1(z')"
        if self.kind == "p1_zpos":
            return f"P_1(z_(1,{self.k}))"
        return f"P_1(z_(1,-{self.k}))"


UNIT = CurveSymbol("unit")
PN_Z = CurveSymbol("pn_z")
P1_ZPRIME = CurveSymbol("p1_zprime")


def p1_zpos(k: int) -> CurveSymbol:
    if k < 1:
        raise ValueError("winding symbols need k >= 1")
    return CurveSymbol("p1_zpos", k)


def p1_zneg(k: int) -> CurveSymbol:
    if k < 1:
        raise ValueError("winding symbols need k >= 1")
    return CurveSymbol("p1_zneg", k)


def loop_product_expansion(
    a: LaurentPoly, c: list[LaurentPoly]
) -> dict[CurveSymbol, LaurentPoly]:
    """Expand P_1(z')P_n(z) over the formal curve symbols, exactly.

    a is the constant of P_1(t) = t + a; c[0..n] are the coefficients of
    P_n over the Chebyshev-style basis, with c[n] = 1 (monic).  Zero
    coefficients are omitted from the result.
    """
    n = len(c) - 1
    if n < 0 or c[n] != ONE:
        raise ValueError("coefficient list must end with the monic leading 1")
    out: dict[CurveSymbol, LaurentPoly] = {}

    def put(sym: CurveSymbol, val: LaurentPoly):
        if not val.is_zero():
            out[sym] = val

    put(PN_Z, a)
    put(P1_ZPRIME, c[0])
    d = -(a * c[0])
    for k in range(1, n + 1):
        put(p1_zpos(k), c[k] * q_power(k))
        put(p1_zneg(k), c[k] * q_power(-k))
        d = d - a * c[k] * (q_power(k) + q_power(-k))
    put(UNIT, d)
    return out


class Constraint(Record):
    """One requirement: either a value that must lie in R_+, or an
    engine-checked identity (kind "identity", value unused)."""

    __slots__ = ("label", "value", "satisfied", "kind")  # str, LaurentPoly, bool, str
    _defaults = {"kind": "positivity"}

    def passes(self, q1: bool = False) -> bool:
        """An identity must hold; a value must lie in R_+, or at q = 1 in Z_+."""
        if self.kind == "identity" or not q1:
            return self.satisfied
        return self.value.eval_q1() >= 0


class ConstraintReport(Record):
    """Echo of the inputs, the expansion table, and the derived constraints.

    Fields: subject (str), a (LaurentPoly or None), c (the coefficients),
    table ((symbol label, coefficient) pairs), constraints and conclusion.
    """

    __slots__ = ("subject", "a", "c", "table", "constraints", "conclusion")

    def failed(self) -> list[Constraint]:
        return [x for x in self.constraints if not x.satisfied]

    def ok(self) -> bool:
        return self.conclusion == CONSISTENT

    def to_json_dict(self, q1: bool = False) -> dict:
        def render(v: LaurentPoly):
            return v.eval_q1() if q1 else v.to_json_dict()

        return {
            "subject": self.subject,
            "a": None if self.a is None else render(self.a),
            "c": [render(x) for x in self.c],
            "table": [{"symbol": s, "coeff": render(v)} for s, v in self.table],
            "constraints": [
                {
                    "label": x.label,
                    "value": render(x.value),
                    "required": "identity"
                    if x.kind == "identity"
                    else ("Z_+" if q1 else "R_+"),
                    "ok": x.passes(q1),
                }
                for x in self.constraints
            ],
            "conclusion": self.conclusion_for(q1),
        }

    def conclusion_for(self, q1: bool = False) -> str:
        """The conclusion, with every positivity requirement read over Z
        when q1 is set."""
        if not q1:
            return self.conclusion
        if not all(x.passes(True) for x in self.constraints):
            return CONTRADICTION
        if self.a is not None and self.a.eval_q1() != 0:
            return FORCES_A_ZERO
        return CONSISTENT


def _conclude(a: LaurentPoly | None, constraints: list[Constraint]) -> str:
    if any(not x.satisfied for x in constraints):
        return CONTRADICTION
    if a is not None and not a.is_zero():
        # Unreachable for concrete inputs: a nonzero a makes the constant
        # term fail its paired positivity requirements above.
        return FORCES_A_ZERO
    return CONSISTENT


def minimality_constraints(seq: SequenceSpec, n: int) -> ConstraintReport:
    """The full set of positivity requirements the loop expansion imposes
    on seq at level n, plus the derived -d requirement and conclusion."""
    if n < 1:
        raise ValueError("n must be positive")
    p1 = seq[1]
    a = p1.coefficient(0)
    c = to_basis(seq[n], CHEBYSHEV)
    table = loop_product_expansion(a, c)
    d = table.get(UNIT, ZERO)
    constraints = [
        Constraint(sym.label(), val, val.is_positive())
        for sym, val in sorted(table.items(), key=lambda kv: kv[0].sort_key())
        if sym != UNIT
    ]
    constraints.append(Constraint("d", d, d.is_positive()))
    constraints.append(Constraint("-d", -d, (-d).is_positive()))
    ordered = tuple(
        (s.label(), v)
        for s, v in sorted(table.items(), key=lambda kv: kv[0].sort_key())
    )
    return ConstraintReport(
        subject=f"loop minimality, seq={seq.name}, n={n}",
        a=a,
        c=tuple(c),
        table=ordered,
        constraints=tuple(constraints),
        conclusion=_conclude(a, constraints),
    )


def grid_identity(k: int, n: int, cap: int) -> tuple[SkeinVector, SkeinVector]:
    """Both sides of x^k y_n = q^(-kn) z_(k,n) modulo the grid ideal: the
    quotient of the k-by-n grid, and the weighted all-negative state."""
    lhs = resolve_all_mod(build_xk_yn(k, n), grid_ideal(n), cap=cap)
    rhs = normal_form(build_zkn(k, n)).scaled(q_power(-k * n))
    return lhs, rhs


def q_constraints(
    seq: SequenceSpec,
    n: int,
    k_max: int | None = None,
    *,
    diagram_check: bool = False,
    cap: int = DEFAULT_CROSSING_CAP,
) -> ConstraintReport:
    """Positivity requirements on the power-basis coefficients of seq[n],
    read off the boundary-ideal quotient of the marked disk.

    With diagram_check, each weight q^(-kn) is re-derived by the full
    resolution engine: the quotient of x^k y_n must equal q^(-kn) times
    the normal form of the all-negative state, for 1 <= k <= k_max.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if k_max is None:
        k_max = n
    if k_max < 1:
        raise ValueError("k_max must be positive")
    k_max = min(k_max, n)
    c = to_basis(seq[n], POWER)
    table = tuple((f"q^-{k * n}*z_({k},{n})", c[k] * q_power(-k * n)) for k in range(1, n + 1))
    constraints = [
        Constraint(f"c_{k}", c[k], c[k].is_positive()) for k in range(0, k_max + 1)
    ]
    if diagram_check:
        for k in range(1, k_max + 1):
            got, want = grid_identity(k, n, cap)
            constraints.append(
                Constraint(
                    f"x^{k} y_{n} == q^-{k * n} z_({k},{n}) mod I",
                    ZERO,
                    got == want,
                    kind="identity",
                )
            )
    return ConstraintReport(
        subject=f"arc condition, seq={seq.name}, n={n}",
        a=None,
        c=tuple(c),
        table=table,
        constraints=tuple(constraints),
        conclusion=CONTRADICTION if any(not x.satisfied for x in constraints) else CONSISTENT,
    )


class AuditRow(Record):
    """Whether every structure constant of seq[m] * seq[n] is positive."""

    __slots__ = ("m", "n", "all_positive")  # int, int, bool


class AuditReport(Record):
    """One row per product seq[m] * seq[n] with m <= n <= max_n.

    Its own type, not a bare tuple of rows, so emit_report can dispatch
    on it."""

    __slots__ = ("rows",)  # tuple[AuditRow, ...]

    def ok(self) -> bool:
        return all(r.all_positive for r in self.rows)


def structure_constant_audit(seq: SequenceSpec, max_n: int) -> AuditReport:
    """Positivity of every structure constant of seq on the loop algebra
    of the annulus, for all products up to max_n."""
    if max_n < 1:
        raise ValueError("max_n must be positive")
    from .sequences import product_in_basis

    rows = []
    for m in range(0, max_n + 1):
        for n in range(m, max_n + 1):
            coeffs = product_in_basis(seq, m, n)
            rows.append(AuditRow(m, n, all(x.is_positive() for x in coeffs)))
    return AuditReport(tuple(rows))
