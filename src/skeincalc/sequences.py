"""Normalized polynomial sequences in one variable over the Laurent ring.

A normalized sequence assigns to each n >= 0 a monic degree-n polynomial,
with the 0-th entry the constant 1.  Two built-ins matter here: the
Chebyshev-style sequence T_0 = 1, T_1 = t, T_2 = t^2 - 2, and
T_n = t*T_{n-1} - T_{n-2} from there on, and the power sequence t^n.
Everything else is exact basis conversion between such sequences, which is
division by remainder against monic leading terms.

All `UniPoly` ring work goes through one kernel, `_addmul`, on a working
buffer: a list with one mutable {exponent: int} dict per power of t.  It
adds sign * c * row[i] into slot shift + i in place.  A product is one
`_addmul` per nonzero coefficient of the left factor; `to_basis` walks
the buffer from the top degree down and subtracts c_j * seq[j] wherever
slot j is nonzero, so what is left is exactly p - sum c_k * seq[k];
`product_in_basis` reduces the product buffer in place and never builds
the product polynomial.  Each slot becomes a `LaurentPoly` once, at the
end, with its cancelled zeros dropped.
"""

from __future__ import annotations

from operator import index
from typing import Iterable, Mapping, Sequence

from .laurent import LaurentPoly, ONE, ZERO


class UniPoly:
    """A polynomial in t with LaurentPoly coefficients, dense by degree.

    Trailing zero coefficients are stripped, so the degree is always the
    index of the last stored coefficient (-1 for the zero polynomial).
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[LaurentPoly | int] = ()):
        cs = [c if isinstance(c, LaurentPoly) else LaurentPoly(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "_coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @property
    def coeffs(self) -> tuple[LaurentPoly, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    def coefficient(self, i: int) -> LaurentPoly:
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return ZERO

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_monic(self) -> bool:
        return bool(self._coeffs) and self._coeffs[-1] == ONE

    def __add__(self, other: "UniPoly") -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        return _linear(((ONE, self._coeffs, 1), (ONE, other._coeffs, 1)))

    def __neg__(self) -> "UniPoly":
        return _linear(((ONE, self._coeffs, -1),))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        return _linear(((ONE, self._coeffs, 1), (ONE, other._coeffs, -1)))

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, UniPoly):
            return _finish(_product(self._coeffs, other._coeffs))
        if isinstance(other, int):
            other = LaurentPoly(other)
        if isinstance(other, LaurentPoly):
            return _linear(((other, self._coeffs, 1),))
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __reduce__(self):
        return (UniPoly, (self._coeffs,))

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self._coeffs[i]
            if c.is_zero():
                continue
            tpow = "" if i == 0 else ("t" if i == 1 else f"t^{i}")
            citems = c.items()
            plain = len(citems) == 1 and citems[0][0] == 0
            if plain:
                val = citems[0][1]
                if i == 0:
                    body, neg = str(abs(val)), val < 0
                else:
                    mag = "" if abs(val) == 1 else str(abs(val))
                    body, neg = f"{mag}{tpow}", val < 0
            else:
                body, neg = (f"({c})" if i == 0 else f"({c}){tpow}"), False
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f" - {body}" if neg else f" + {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"UniPoly('{self}')"


# -- the working buffer ----------------------------------------------------------

Row = Sequence[LaurentPoly]


def _addmul(acc: list[dict[int, int]], shift: int, c: LaurentPoly, row: Row, sign: int) -> None:
    """acc[shift + i] += sign * c * row[i] for every i, in place.

    acc holds one {exponent: int} dict per power of t and is extended when
    row reaches past its end.  Cancelled terms stay behind as stored
    zeros until `_finish` or `_reduce` reads the slot.
    """
    short = shift + len(row) - len(acc)
    if short > 0:
        acc.extend({} for _ in range(short))
    for e1, v1 in c._terms.items():
        v1 *= sign
        for slot, r in zip(acc[shift:], row):
            rt = r._terms
            if not rt:
                continue
            get = slot.get
            for e2, v2 in rt.items():
                e = e1 + e2
                slot[e] = get(e, 0) + v1 * v2


def _wrap(terms: dict[int, int]) -> LaurentPoly:
    """One buffer slot as a LaurentPoly, its cancelled zeros dropped."""
    return LaurentPoly._adopt({e: v for e, v in terms.items() if v})


def _finish(acc: list[dict[int, int]]) -> UniPoly:
    return UniPoly([_wrap(terms) for terms in acc])


def _linear(terms: Iterable[tuple[LaurentPoly, Row, int]]) -> UniPoly:
    """sum(sign * c * row) over (c, row, sign), built in one buffer."""
    acc: list[dict[int, int]] = []
    for c, row, sign in terms:
        _addmul(acc, 0, c, row, sign)
    return _finish(acc)


def _product(a: Row, b: Row) -> list[dict[int, int]]:
    """The buffer of a * b: one `_addmul` per nonzero coefficient of a."""
    acc: list[dict[int, int]] = []
    for i, c in enumerate(a):
        if c._terms:
            _addmul(acc, i, c, b, 1)
    return acc


T_VAR = UniPoly([0, 1])

_CHEBYSHEV = [UniPoly([1]), T_VAR, UniPoly([-2, 0, 1])]


def chebyshev(n: int) -> UniPoly:
    """T_n with T_0 = 1, T_1 = t, T_2 = t^2 - 2, T_n = t*T_{n-1} - T_{n-2}.

    Note the normalization T_0 = 1, so the recursion only holds from n = 3
    onward and T_2 is pinned separately.  The table grows bottom-up, so
    no call recurses.
    """
    global _CHEBYSHEV
    n = index(n)
    if n < 0:
        raise ValueError("chebyshev index must be nonnegative")
    table = _CHEBYSHEV
    if n >= len(table):
        # Grow a copy and publish it whole: a concurrent caller sees the
        # old table or the new one, never a half-built one.
        table = list(table)
        while len(table) <= n:
            table.append(T_VAR * table[-1] - table[-2])
        _CHEBYSHEV = table
    return table[n]


def power(n: int) -> UniPoly:
    """The monomial t^n."""
    n = index(n)
    if n < 0:
        raise ValueError("power index must be nonnegative")
    return UniPoly([0] * n + [1])


class SequenceSpec:
    """A normalized sequence: seq[n] is monic of degree n and seq[0] = 1."""

    name = "abstract"

    def poly(self, n: int) -> UniPoly:
        raise NotImplementedError

    def __getitem__(self, n: int) -> UniPoly:
        return self.poly(n)


class ChebyshevSequence(SequenceSpec):
    name = "chebyshev"

    def poly(self, n: int) -> UniPoly:
        return chebyshev(n)


class PowerSequence(SequenceSpec):
    name = "power"

    def poly(self, n: int) -> UniPoly:
        return power(n)


class MissingEntry(ValueError):
    """A custom sequence was asked for an index it does not define."""


class CustomSequence(SequenceSpec):
    """A table of polynomials, optionally falling back to a base sequence.

    Validation is eager: every table entry must be monic of its index's
    degree, and an entry at 0 must be the constant 1.
    """

    def __init__(
        self,
        polys: Mapping[int, UniPoly],
        base: SequenceSpec | None = None,
        name: str = "custom",
    ):
        table = {}
        for n, p in polys.items():
            n = index(n)
            if n < 0:
                raise ValueError("sequence indices must be nonnegative")
            if p.degree != n or not p.is_monic():
                raise ValueError(f"entry {n} must be monic of degree {n}, got {p}")
            table[n] = p
        if 0 in table and table[0] != UniPoly([1]):
            raise ValueError("entry 0 of a normalized sequence must be 1")
        self._table = table
        self._base = base
        self.name = name

    def poly(self, n: int) -> UniPoly:
        n = index(n)
        if n in self._table:
            return self._table[n]
        if self._base is not None:
            return self._base.poly(n)
        if n == 0:
            return UniPoly([1])
        raise MissingEntry(f"custom sequence has no entry for index {n}")


CHEBYSHEV = ChebyshevSequence()
POWER = PowerSequence()


def _reduce(acc: list[dict[int, int]], seq: SequenceSpec) -> list[LaurentPoly]:
    """Basis coefficients of the buffer's polynomial, by division with
    remainder from the top degree down; the buffer is consumed.

    Where slot j is nonzero its value is c_j, and c_j * seq[j] is
    subtracted whole, its part at and above t^j included, so the buffer
    ends as p - sum c_k * seq[k].  That is 0 when every entry read is
    monic of its degree; a nonzero residual means the table is broken.
    """
    out = [ZERO] * len(acc)
    for j in range(len(acc) - 1, -1, -1):
        if any(acc[j].values()):
            cj = out[j] = _wrap(acc[j])
            _addmul(acc, 0, cj, seq[j].coeffs, -1)
    if any(any(terms.values()) for terms in acc):
        raise AssertionError("basis conversion left a nonzero residual")
    return out


def to_basis(p: UniPoly, seq: SequenceSpec) -> list[LaurentPoly]:
    """Coefficients c_k with p = sum c_k * seq[k]; exact, length deg(p)+1.

    seq[k] is read only where c_k is nonzero.
    """
    return _reduce([dict(c._terms) for c in p.coeffs], seq)


def from_basis(coeffs: Sequence[LaurentPoly], seq: SequenceSpec) -> UniPoly:
    """Inverse of to_basis: rebuild the polynomial from its coefficients."""
    return _linear((c, seq[k].coeffs, 1) for k, c in enumerate(coeffs) if c._terms)


def product_in_basis(seq: SequenceSpec, m: int, n: int) -> list[LaurentPoly]:
    """Coefficients of seq[m] * seq[n] expanded back in the basis {seq[k]}.

    The product buffer is reduced in place; the product polynomial is
    never built.
    """
    if m < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    return _reduce(_product(seq[m].coeffs, seq[n].coeffs), seq)
