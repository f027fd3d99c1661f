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
consistency of these necessary conditions only.  They are plain data:
ConstraintReport.conclusion_for is the one conclusion rule, and cli.py
renders every output format.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ._cap import DEFAULT_CROSSING_CAP
from ._record import Record
from .laurent import LaurentPoly, ONE, ZERO, q_power
from .sequences import CHEBYSHEV, POWER, Sequence, product_in_basis, to_basis

if TYPE_CHECKING:
    from .skein import SkeinVector

CONSISTENT = "consistent"
CONTRADICTION = "contradiction"
FORCES_A_ZERO = "forces a=0"


# Labels of the loop-product expansion's basis symbols.
UNIT = "1"
PN_Z = "P_n(z)"
P1_ZPRIME = "P_1(z')"


def p1_zpos(k: int) -> str:
    if k < 1:
        raise ValueError("winding symbols need k >= 1")
    return f"P_1(z_(1,{k}))"


def p1_zneg(k: int) -> str:
    if k < 1:
        raise ValueError("winding symbols need k >= 1")
    return f"P_1(z_(1,-{k}))"


def loop_product_expansion(
    a: LaurentPoly, c: list[LaurentPoly]
) -> dict[str, LaurentPoly]:
    """Expand P_1(z')P_n(z) over the formal curve symbols, exactly.

    a is the constant of P_1(t) = t + a; c[0..n] are the coefficients of
    P_n over the Chebyshev-style basis, with c[n] = 1 (monic).  The result
    maps symbol labels to coefficients in report order: the unit, P_n(z),
    P_1(z'), then the winding pairs by k, positive first.  Zero
    coefficients are omitted.
    """
    n = len(c) - 1
    if n < 0 or c[n] != ONE:
        raise ValueError("coefficient list must end with the monic leading 1")
    terms = [(PN_Z, a), (P1_ZPRIME, c[0])]
    d = -(a * c[0])
    for k in range(1, n + 1):
        terms.append((p1_zpos(k), c[k] * q_power(k)))
        terms.append((p1_zneg(k), c[k] * q_power(-k)))
        d = d - a * c[k] * (q_power(k) + q_power(-k))
    return {sym: val for sym, val in [(UNIT, d), *terms] if not val.is_zero()}


def in_cone(values: list[LaurentPoly], q1: bool = False) -> bool:
    """Every value lies in R_+, or with q1 every value at q = 1 lies in Z_+.

    0 lies in both cones, so zero values are skipped unread: most basis
    coefficients of a Chebyshev product are 0."""
    return all(v.eval_q1() >= 0 if q1 else v.is_positive() for v in values if v._terms)


class Constraint(Record):
    """One requirement: either a value that must lie in R_+, or an
    engine-checked identity (kind "identity", value unused)."""

    __slots__ = ("label", "value", "satisfied", "kind")  # str, LaurentPoly, bool, str
    _defaults = {"kind": "positivity"}

    def passes(self, q1: bool = False) -> bool:
        """An identity must hold; a value must lie in R_+, or at q = 1 in Z_+."""
        if self.kind == "identity" or not q1:
            return self.satisfied
        return in_cone([self.value], q1)


class ConstraintReport(Record):
    """Echo of the inputs, the expansion table, and the derived constraints.

    Fields: subject (str), a (LaurentPoly, or None for the arc condition),
    c (the coefficients), table ((symbol label, coefficient) pairs) and
    constraints.  The conclusion is derived, never stored.
    """

    __slots__ = ("subject", "a", "c", "table", "constraints")

    def failed(self) -> list[Constraint]:
        return [x for x in self.constraints if not x.satisfied]

    @property
    def conclusion(self) -> str:
        """The conclusion over R_+."""
        return self.conclusion_for(False)

    def conclusion_for(self, q1: bool = False) -> str:
        """The one conclusion rule, with every positivity requirement and
        the constant a read at q = 1 when q1 is set.

        Over R_+ the forces-a=0 branch is unreachable for concrete inputs:
        a nonzero a makes the constant term fail one of d and -d first.
        """
        if not all(x.passes(q1) for x in self.constraints):
            return CONTRADICTION
        if self.a is not None and (self.a.eval_q1() != 0 if q1 else not self.a.is_zero()):
            return FORCES_A_ZERO
        return CONSISTENT


def minimality_constraints(seq: Sequence, n: int) -> ConstraintReport:
    """The full set of positivity requirements the loop expansion imposes
    on seq at level n, plus the derived -d requirement."""
    if n < 1:
        raise ValueError("n must be positive")
    p1 = seq[1]
    a = p1.coefficient(0)
    c = to_basis(seq[n], CHEBYSHEV)
    table = loop_product_expansion(a, c)
    d = table.get(UNIT, ZERO)
    constraints = [
        Constraint(sym, val, val.is_positive()) for sym, val in table.items() if sym != UNIT
    ]
    constraints.append(Constraint("d", d, d.is_positive()))
    constraints.append(Constraint("-d", -d, (-d).is_positive()))
    return ConstraintReport(
        subject=f"loop minimality, seq={seq.name}, n={n}",
        a=a,
        c=tuple(c),
        table=tuple(table.items()),
        constraints=tuple(constraints),
    )


def grid_identity(k: int, n: int, cap: int) -> tuple[SkeinVector, SkeinVector]:
    """Both sides of x^k y_n = q^(-kn) z_(k,n) modulo the grid ideal: the
    quotient of the k-by-n grid, and the weighted all-negative state.
    The resolver loads here, so the reports that never call this skip it."""
    from .diagram import build_xk_yn, build_zkn
    from .skein import grid_ideal, normal_form, resolve_all_mod

    lhs = resolve_all_mod(build_xk_yn(k, n), grid_ideal(n), cap=cap)
    rhs = normal_form(build_zkn(k, n)).scaled(q_power(-k * n))
    return lhs, rhs


def q_constraints(
    seq: Sequence,
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
    )


class AuditRow(Record):
    """Whether the structure constants of seq[m] * seq[n] lie in R_+, and at q = 1 in Z_+."""

    __slots__ = ("m", "n", "all_positive", "all_positive_q1")  # int, int, bool, bool

    def passes(self, q1: bool = False) -> bool:
        return self.all_positive_q1 if q1 else self.all_positive


class AuditReport(Record):
    """One row per product seq[m] * seq[n] with m <= n <= max_n.

    Its own type, not a bare tuple of rows, so emit_report can dispatch
    on it."""

    __slots__ = ("rows",)  # tuple[AuditRow, ...]

    def ok(self, q1: bool = False) -> bool:
        return all(r.passes(q1) for r in self.rows)


def structure_constant_audit(seq: Sequence, max_n: int) -> AuditReport:
    """Positivity of every structure constant of seq on the loop algebra
    of the annulus, for all products up to max_n."""
    if max_n < 1:
        raise ValueError("max_n must be positive")
    rows = []
    for m in range(0, max_n + 1):
        for n in range(m, max_n + 1):
            coeffs = product_in_basis(seq, m, n)
            over_r = in_cone(coeffs)  # R_+ lies in Z_+ at q = 1
            rows.append(AuditRow(m, n, over_r, over_r or in_cone(coeffs, q1=True)))
    return AuditReport(tuple(rows))
