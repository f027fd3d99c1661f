"""Normalized polynomial sequences in one variable over the Laurent ring.

A normalized sequence assigns to each n >= 0 a monic degree-n polynomial,
with the 0-th entry the constant 1.  Two built-ins matter here: the
Chebyshev-style sequence T_0 = 1, T_1 = t, T_2 = t^2 - 2, and
T_n = t*T_{n-1} - T_{n-2} from there on, and the power sequence t^n.
Everything else is exact basis conversion between such sequences, which is
division by remainder against monic leading terms.

All `UniPoly` ring work goes through one packed kernel (Kronecker
substitution): a polynomial is one int whose signed base-2^B digit at
i * W + e - lo is the coefficient of q^e t^i, so a product is one big-int
multiply.  Packing is injective only while every digit lies in
(-2^(B-1), 2^(B-1)) and every exponent in the frame [lo, lo + W).  Sums
and products size B and the frame from an a-priori bound; `to_basis` and
`product_in_basis` cannot, so they check the bound as they divide and
start over wider when it fails.  A polynomial keeps its packed forms
at its own exponent width.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index
from typing import Callable, Collection, Iterable, Mapping

from .laurent import LaurentPoly, ONE, ZERO


class UniPoly:
    """A polynomial in t with LaurentPoly coefficients, dense by degree.

    Trailing zero coefficients are stripped, so the degree is always the
    index of the last stored coefficient (-1 for the zero polynomial).
    """

    __slots__ = ("_coeffs", "_stats", "_packs")

    def __init__(self, coeffs: Iterable[LaurentPoly | int] = ()):
        cs = [c if isinstance(c, LaurentPoly) else LaurentPoly(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "_coeffs", tuple(cs))
        object.__setattr__(self, "_stats", None)
        object.__setattr__(self, "_packs", {})

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
        return _combine(((_ONE, self), (_ONE, other)))

    def __neg__(self) -> "UniPoly":
        return _combine(((_MINUS_ONE, self),))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        return _combine(((_ONE, self), (_MINUS_ONE, other)))

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (int, LaurentPoly)):
            other = UniPoly((other,))
        if isinstance(other, UniPoly):
            return _combine(((self, other),))
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


# -- the packed kernel ----------------------------------------------------------


def _stats(p: UniPoly) -> tuple[int, int, int, int, int]:
    """(lowest degree of t, lowest and highest exponent of q, largest
    |coefficient|, number of terms) of p, kept on p; all 0 for p = 0."""
    if p._stats is None:
        terms = [t for c in p._coeffs for t in c._terms.items()]
        es = [e for e, _ in terms] or [0]
        i0 = next((i for i, c in enumerate(p._coeffs) if c._terms), 0)
        big = max((abs(v) for _, v in terms), default=0)
        object.__setattr__(p, "_stats", (i0, min(es), max(es), big, len(terms)))
    return p._stats


def _width(bound: int) -> int:
    """The digit width B: the least power of two from 8 with bound < 2^(B-1)."""
    return max(8, 1 << bound.bit_length().bit_length())


def _pack(p: UniPoly, B: int, W: int) -> int:
    """p as one int: c * q^e t^i is the digit at (i - i0) * W + e - lo,
    where i0 and lo are p's lowest degree and exponent.  p keeps it only
    at its own width hi - lo + 1, one per B; as B doubles, what p keeps
    stays under twice its dense layout at the widest B."""
    i0, lo, hi, *_ = _stats(p)
    kept = p._packs if W == hi - lo + 1 else {}
    if B not in kept:
        nb = B >> 3
        pos = bytearray((len(p._coeffs) - i0) * W * nb)
        neg = bytearray(len(pos))
        for i, c in enumerate(p._coeffs[i0:]):
            for e, v in c._terms.items():
                k = (i * W + e - lo) * nb
                (pos if v > 0 else neg)[k : k + nb] = abs(v).to_bytes(nb, "little")
        kept[B] = int.from_bytes(pos, "little") - int.from_bytes(neg, "little")
    return kept[B]


def _unpack(K: int, B: int, W: int, lo: int, n: int) -> list[LaurentPoly]:
    """The n coefficients packed in K, frame [lo, lo + W).  Adding 2^(B-1)
    to every digit makes each a plain unsigned field, free of carries."""
    nb, half = B >> 3, 1 << (B - 1)
    bias = int.from_bytes((bytes(nb - 1) + b"\x80") * (n * W), "little")
    buf, out = (K + bias).to_bytes(n * W * nb, "little"), []
    for i in range(0, len(buf), W * nb):
        terms = {}
        for e in range(W):
            if v := int.from_bytes(buf[i + e * nb : i + e * nb + nb], "little") - half:
                terms[lo + e] = v
        out.append(LaurentPoly._adopt(terms) if terms else ZERO)
    return out


Pairs = Collection[tuple[UniPoly, UniPoly]]


def _frame(pairs: Pairs) -> tuple[int, int, int, int]:
    """(lo, hi, bound, n) for sum a * p: its exponents lie in [lo, hi],
    no coefficient of it or of a factor exceeds bound in size, and n
    coefficients hold it."""
    ends, bound, big, n = [], 0, 0, 0
    for a, p in pairs:
        (_, alo, ahi, am, an), (_, plo, phi, pm, pn) = _stats(a), _stats(p)
        ends += (alo + plo, ahi + phi)
        bound, big = bound + am * pm * min(an, pn), max(big, am, pm)
        n = max(n, len(a._coeffs) + len(p._coeffs) - 1)
    return min(ends, default=0), max(ends, default=0), max(bound, big), n


def _sum(pairs: Pairs, B: int, W: int, lo: int) -> int:
    """sum a * p packed in the frame [lo, lo + W), which must hold it."""
    K = 0
    for a, p in pairs:
        (ai, alo, *_), (pi, plo, *_) = _stats(a), _stats(p)
        K += _pack(a, B, W) * _pack(p, B, W) << B * ((ai + pi) * W + alo + plo - lo)
    return K


def _combine(pairs: Pairs) -> UniPoly:
    """sum a * p over pairs, B and the frame sized by _frame."""
    lo, hi, bound, n = _frame(pairs)
    B, W = _width(bound), hi - lo + 1
    return UniPoly(_unpack(_sum(pairs, B, W, lo), B, W, lo, n))


_ONE, _MINUS_ONE = UniPoly([1]), UniPoly([-1])


def chebyshev(n: int) -> UniPoly:
    """T_n with T_0 = 1, T_1 = t, T_2 = t^2 - 2, T_n = t*T_{n-1} - T_{n-2}.

    The recursion holds from n = 3 on, as T_0 = 1; each T_n is built alone.
    """
    return CHEBYSHEV[n]


@lru_cache(maxsize=None)
def _chebyshev(n: int) -> UniPoly:
    """T_n from its closed form: for n >= 1, t^(n-2k) has coefficient c_k =
    (-1)^k n/(n-k) C(n-k, k), reached from c_0 = 1 by exact integer steps."""
    coeffs, c = [ZERO] * n + [ONE], 1
    for k in range(1, n // 2 + 1):
        c = -c * (n - 2 * k + 2) * (n - 2 * k + 1) // (k * (n - k))
        coeffs[n - 2 * k] = LaurentPoly(c)
    return UniPoly(coeffs)


def power(n: int) -> UniPoly:
    """The monomial t^n."""
    return POWER[n]


class MissingEntry(ValueError):
    """A custom sequence was asked for an index it does not define."""


class Sequence:
    """A normalized sequence: seq[n] is monic of degree n and seq[0] = 1.

    seq[n] is the one place an index is checked; entry(n) then sees only
    ints n >= 0.
    """

    __slots__ = ("name", "_entry")

    def __init__(self, name: str, entry: Callable[[int], UniPoly]):
        self.name = name
        self._entry = entry

    def __getitem__(self, n: int) -> UniPoly:
        n = index(n)
        if n < 0:
            raise ValueError(f"{self.name} index must be nonnegative")
        return self._entry(n)

    @classmethod
    def custom(
        cls,
        polys: Mapping[int, UniPoly],
        base: Sequence | None = None,
        name: str = "custom",
    ) -> Sequence:
        """A table of polynomials, falling back to base where it has no entry.

        Validation is eager: every table entry must be monic of its index's
        degree, and an entry at 0 must be the constant 1.  An index that
        neither the table nor base defines raises MissingEntry.
        """
        table = {}
        for n, p in polys.items():
            n = index(n)
            if n < 0:
                raise ValueError("sequence indices must be nonnegative")
            if p.degree != n or not p.is_monic():
                raise ValueError(f"entry {n} must be monic of degree {n}, got {p}")
            table[n] = p
        if table.setdefault(0, _ONE) != _ONE:
            raise ValueError("entry 0 of a normalized sequence must be 1")

        def entry(n: int) -> UniPoly:
            if n in table:
                return table[n]
            if base is None:
                raise MissingEntry(f"custom sequence has no entry for index {n}")
            return base._entry(n)

        return cls(name, entry)


CHEBYSHEV = Sequence("chebyshev", _chebyshev)
POWER = Sequence("power", lambda n: UniPoly([ZERO] * n + [ONE]))


def _reduce(pairs: Pairs, seq: Sequence) -> list[LaurentPoly]:
    """Basis coefficients of P = sum a * p over pairs, by division with
    remainder from the top degree down: where slot j of the packed K is
    nonzero it is c_j, and c_j * seq[j] is subtracted whole, so K ends as
    P - sum c_k * seq[k], 0 unless an entry read is not monic of its
    degree.  No digit exceeds total = bound + sum |c_k * seq[k]|; once
    that reaches 2^(B-1), or c_k * seq[k] leaves the frame, the pass
    restarts wider; each step does so at most once, so n + 1 passes do."""
    lo, hi, bound, n = _frame(pairs)
    B = _width(bound)
    for _ in range(n + 1):
        W = hi - lo + 1
        BW, K, total, out, j = B * W, _sum(pairs, B, W, lo), bound, [ZERO] * n, n
        # The balanced residue of K below slot j: slots j and up are done.
        while j and (low := ((K + (h := 1 << (BW * j - 1))) & (2 * h - 1)) - h):
            j = abs(low).bit_length() // BW
            S = (low + (1 << BW * j >> 1)) >> BW * j
            out[j] = _unpack(S, B, W, lo, 1)[0]
            c = out[j]._terms
            sj = seq[j]
            si, slo, shi, sm, sn = _stats(sj)
            clo, chi = min(c), max(c)
            total += max(map(abs, c.values())) * sm * min(len(c), sn)
            if clo + slo < lo or chi + shi > hi or total >> (B - 1):
                lo, hi, B = min(lo, clo + slo), max(hi, chi + shi), _width(total)
                break
            K -= (S >> B * (clo - lo)) * _pack(sj, B, W) << B * (si * W + clo + slo - lo)
        else:
            if K:
                raise AssertionError("basis conversion left a nonzero residual")
            return out
    raise AssertionError("packed basis conversion did not settle")


def to_basis(p: UniPoly, seq: Sequence) -> list[LaurentPoly]:
    """Coefficients c_k with p = sum c_k * seq[k]; exact, length deg(p)+1.

    seq[k] is read only where c_k is nonzero.
    """
    return _reduce(((_ONE, p),), seq)


def from_basis(coeffs: Iterable[LaurentPoly], seq: Sequence) -> UniPoly:
    """Inverse of to_basis: rebuild the polynomial from its coefficients."""
    return _combine([(UniPoly((c,)), seq[k]) for k, c in enumerate(coeffs) if c._terms])


def product_in_basis(seq: Sequence, m: int, n: int) -> list[LaurentPoly]:
    """Coefficients of seq[m] * seq[n] expanded back in the basis {seq[k]}.

    The packed product is reduced directly; the product polynomial is
    never built.
    """
    return _reduce(((seq[m], seq[n]),), seq)
