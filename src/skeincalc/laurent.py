"""Exact arithmetic in the ring of integer Laurent polynomials in q.

Every computation in this package happens over this ring: finite sums of
c * q^e with integer coefficient c and integer exponent e, negative powers
allowed.  The positive cone -- elements with no negative coefficient -- is
closed under addition and multiplication and meets its own negative only
in 0; all positivity bookkeeping downstream reduces to `is_positive`
checks here.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from operator import index

_EXPONENT = re.compile(r"-?[0-9]+")


class LaurentPoly:
    """An element of Z[q, q^-1], stored sparsely as {exponent: coefficient}.

    Values are immutable by convention.  Coefficients are Python ints,
    hence arbitrary precision.  No zero coefficient is ever stored: the
    public constructor drops zeros, and every internal constructor
    (`_adopt`) is handed a dict that already holds none.  `is_zero`,
    `is_positive`, `__eq__` and `__hash__` rely on this invariant, so
    equality and hashing are structural.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | int | None = None):
        """Validating entry: exponents and coefficients must be exact
        integers (`operator.index`), so a float raises TypeError instead
        of being truncated; so does anything but None, an int or a
        mapping."""
        if terms is None:
            object.__setattr__(self, "_terms", {})
        elif isinstance(terms, int):
            object.__setattr__(self, "_terms", {0: index(terms)} if terms else {})
        elif isinstance(terms, Mapping):
            exact = ((index(e), index(c)) for e, c in terms.items())
            object.__setattr__(self, "_terms", {e: c for e, c in exact if c})
        else:
            raise TypeError(f"cannot build a LaurentPoly from {type(terms).__name__}")

    @classmethod
    def _adopt(cls, terms: dict[int, int]) -> "LaurentPoly":
        """Wrap a freshly built dict of nonzero int terms, without copying
        or checking it; the caller gives up the dict."""
        out = object.__new__(cls)
        object.__setattr__(out, "_terms", terms)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- accessors ---------------------------------------------------------

    def terms(self) -> dict[int, int]:
        """A fresh {exponent: coefficient} dict."""
        return dict(self._terms)

    def items(self) -> tuple[tuple[int, int], ...]:
        """Terms sorted by ascending exponent."""
        return tuple(sorted(self._terms.items()))

    def coefficient(self, exponent: int) -> int:
        return self._terms.get(exponent, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- ring structure ----------------------------------------------------

    @staticmethod
    def _coerce(other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly(other)
        return None

    def __add__(self, other) -> "LaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self._terms)
        for e, c in o._terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        return LaurentPoly._adopt(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._adopt({e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self._terms)
        for e, c in o._terms.items():
            s = out.get(e, 0) - c
            if s:
                out[e] = s
            else:
                del out[e]
        return LaurentPoly._adopt(out)

    def __rsub__(self, other) -> "LaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other) -> "LaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentPoly.dot(((self, o),))

    __rmul__ = __mul__

    @staticmethod
    def dot(pairs: Iterable[tuple["LaurentPoly", "LaurentPoly"]]) -> "LaurentPoly":
        """sum(a * b for a, b in pairs), accumulated in one dict: zeros are
        dropped once at the end and one object is built."""
        acc: dict[int, int] = {}
        get = acc.get
        for a, b in pairs:
            bt = b._terms.items()
            for e1, c1 in a._terms.items():
                for e2, c2 in bt:
                    e = e1 + e2
                    acc[e] = get(e, 0) + c1 * c2
        return LaurentPoly._adopt({e: c for e, c in acc.items() if c})

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are only defined for units; use shifted()")
        out = ONE
        for _ in range(n):
            out = out * self
        return out

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiplication by the unit q^k."""
        return LaurentPoly._adopt({e + k: c for e, c in self._terms.items()})

    # -- the positive cone and the q=1 specialization ------------------------

    def is_positive(self) -> bool:
        """True iff every coefficient is nonnegative; 0 counts as positive."""
        return all(c > 0 for c in self._terms.values())

    def eval_q1(self) -> int:
        """Specialize q = 1: the sum of all coefficients."""
        return sum(self._terms.values())

    # -- identity ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self) -> int:
        # Constants compare equal to ints, so they must hash like them.
        if not self._terms.keys() - {0}:
            return hash(self._terms.get(0, 0))
        return hash(frozenset(self._terms.items()))

    def __reduce__(self):
        return (LaurentPoly, (self._terms,))

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict[str, int]:
        """JSON object mapping exponent strings to integer coefficients."""
        return {str(e): c for e, c in sorted(self._terms.items())}

    @classmethod
    def from_json_dict(cls, data: Mapping[str, int]) -> "LaurentPoly":
        """Inverse of to_json_dict; anything but exact integers is rejected.

        Keys must be decimal integer strings naming distinct exponents and
        values must be ints (not bools), so no input is rounded.
        """
        terms: dict[int, int] = {}
        for e, c in data.items():
            if not isinstance(e, str) or not _EXPONENT.fullmatch(e):
                raise ValueError(f"exponent key {e!r} is not a decimal integer")
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError(f"coefficient {c!r} of q^{e} is not an integer")
            exponent = int(e)
            if exponent in terms:
                raise ValueError(f"exponent {exponent} appears twice")
            terms[exponent] = c
        return cls(terms)

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for e, c in sorted(self._terms.items()):
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                power = "q" if e == 1 else f"q^{e}"
                body = power if mag == 1 else f"{mag}{power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly('{self}')"


ZERO = LaurentPoly()
ONE = LaurentPoly(1)
Q = LaurentPoly({1: 1})


def q_power(e: int) -> LaurentPoly:
    """The unit q^e."""
    return LaurentPoly({e: 1})
