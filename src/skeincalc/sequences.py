"""Normalized polynomial sequences in one variable over the Laurent ring.

A normalized sequence assigns to each n >= 0 a monic degree-n polynomial,
with the 0-th entry the constant 1.  Two built-ins matter here: the
Chebyshev-style sequence T_0 = 1, T_1 = t, T_2 = t^2 - 2, and
T_n = t*T_{n-1} - T_{n-2} from there on, and the power sequence t^n.
Everything else is exact basis conversion between such sequences, which is
plain back-substitution against monic leading terms.

`UniPoly` products and `to_basis` build each output coefficient with one
`LaurentPoly.dot` over the pairs that contribute to it, so no
intermediate polynomial is formed: the coefficient of t^k in a * b is
dot over a_i, b_j with i + j = k, and the basis coordinate c_j is p_j
minus dot over c_k, seq[k]_j with k > j.
"""

from __future__ import annotations

from functools import lru_cache
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
        n = max(len(self._coeffs), len(other._coeffs))
        return UniPoly([self.coefficient(i) + other.coefficient(i) for i in range(n)])

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self._coeffs])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, UniPoly):
            a = [(i, c) for i, c in enumerate(self._coeffs) if c]
            b = [(j, c) for j, c in enumerate(other._coeffs) if c]
            if not a or not b:
                return UniPoly()
            pairs: list[list[tuple[LaurentPoly, LaurentPoly]]] = [
                [] for _ in range(len(self._coeffs) + len(other._coeffs) - 1)
            ]
            for i, x in a:
                for j, y in b:
                    pairs[i + j].append((x, y))
            return UniPoly([LaurentPoly.dot(ps) for ps in pairs])
        if isinstance(other, (LaurentPoly, int)):
            return UniPoly([c * other for c in self._coeffs])
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


T_VAR = UniPoly([0, 1])


@lru_cache(maxsize=None)
def chebyshev(n: int) -> UniPoly:
    """T_n with T_0 = 1, T_1 = t, T_2 = t^2 - 2, T_n = t*T_{n-1} - T_{n-2}.

    Note the normalization T_0 = 1, so the recursion only holds from n = 3
    onward and T_2 is pinned separately.
    """
    if n < 0:
        raise ValueError("chebyshev index must be nonnegative")
    if n == 0:
        return UniPoly([1])
    if n == 1:
        return T_VAR
    if n == 2:
        return UniPoly([-2, 0, 1])
    return T_VAR * chebyshev(n - 1) - chebyshev(n - 2)


def power(n: int) -> UniPoly:
    """The monomial t^n."""
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
        if n in self._table:
            return self._table[n]
        if self._base is not None:
            return self._base.poly(n)
        if n == 0:
            return UniPoly([1])
        raise MissingEntry(f"custom sequence has no entry for index {n}")


CHEBYSHEV = ChebyshevSequence()
POWER = PowerSequence()


def to_basis(p: UniPoly, seq: SequenceSpec) -> list[LaurentPoly]:
    """Coefficients c_k with p = sum c_k * seq[k]; exact, length deg(p)+1.

    Back-substitution from the top degree down: seq[k] is monic of degree
    k, so c_j = p_j - sum_{k>j} c_k * seq[k]_j, one `dot` per coefficient.
    seq[k] is read only where c_k is nonzero.
    """
    out = list(p.coeffs)
    used: list[tuple[LaurentPoly, tuple[LaurentPoly, ...]]] = []
    residual = UniPoly()
    for j in range(len(out) - 1, -1, -1):
        cj = out[j] = out[j] - LaurentPoly.dot((c, row[j]) for c, row in used)
        if not cj:
            continue
        row = seq[j].coeffs
        if len(row) != j + 1 or row[j] != ONE:
            # seq[j] breaks the contract: what it holds at and above t^j,
            # other than t^j itself, is never subtracted.
            residual = residual + (power(j) - UniPoly([ZERO] * j + list(row[j:]))) * cj
            row += (ZERO,) * (j + 1 - len(row))
        used.append((cj, row))
    if not residual.is_zero():
        raise AssertionError("basis conversion left a nonzero residual")
    return out


def from_basis(coeffs: Sequence[LaurentPoly], seq: SequenceSpec) -> UniPoly:
    """Inverse of to_basis: rebuild the polynomial from its coefficients."""
    out = UniPoly()
    for k, c in enumerate(coeffs):
        if not c.is_zero():
            out = out + seq[k] * c
    return out


def product_in_basis(seq: SequenceSpec, m: int, n: int) -> list[LaurentPoly]:
    """Coefficients of seq[m] * seq[n] expanded back in the basis {seq[k]}."""
    if m < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    return to_basis(seq[m] * seq[n], seq)
