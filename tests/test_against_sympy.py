"""UniPoly products, basis conversion and the Chebyshev recursion
checked against sympy.

Random polynomials in t with Laurent coefficients in q (negative
exponents, coefficients up to 2^70) are multiplied and converted over
the Chebyshev, power and random monic custom sequences; every result is
compared with sympy's expansion of the same expression.  The fused
`product_in_basis` is also checked against the unfused product followed
by `to_basis`, and `chebyshev(n)` against sympy's `chebyshevt`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeincalc.laurent import LaurentPoly
from skeincalc.sequences import (
    CHEBYSHEV,
    POWER,
    Sequence,
    UniPoly,
    chebyshev,
    from_basis,
    product_in_basis,
    to_basis,
)

sympy = pytest.importorskip("sympy")
t, q = sympy.symbols("t q")

BIG = 2**70
MAX_N = 6

laurents = st.dictionaries(
    st.integers(-5, 5), st.integers(-BIG, BIG), max_size=3
).map(LaurentPoly)
unipolys = st.lists(laurents, max_size=4).map(UniPoly)


@st.composite
def sequences(draw):
    kind = draw(st.sampled_from(["chebyshev", "power", "custom"]))
    if kind == "chebyshev":
        return CHEBYSHEV
    if kind == "power":
        return POWER
    lower = st.lists(laurents, min_size=MAX_N, max_size=MAX_N)
    return Sequence.custom(
        {n: UniPoly([*draw(lower)[:n], 1]) for n in range(1, MAX_N + 1)}
    )


def sym_laurent(c: LaurentPoly):
    return sympy.Add(*(v * q**e for e, v in c.items()))


def sym_poly(p: UniPoly):
    return sympy.Add(*(sym_laurent(c) * t**i for i, c in enumerate(p.coeffs)))


def sym_combination(coeffs, seq):
    return sympy.Add(*(sym_laurent(c) * sym_poly(seq[k]) for k, c in enumerate(coeffs) if c))


def assert_same(got, want):
    assert sympy.expand(got - want) == 0


def assert_no_stored_zero(coeffs):
    for c in coeffs:
        assert 0 not in dict(c.items()).values()


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(
    a=unipolys,
    b=unipolys,
    seq=sequences(),
    m=st.integers(0, MAX_N // 2),
    n=st.integers(0, MAX_N // 2),
)
def test_products_and_conversions_match_sympy(a, b, seq, m, n):
    ab = a * b
    assert_same(sym_poly(ab), sym_poly(a) * sym_poly(b))
    assert_no_stored_zero(ab.coeffs)

    # a(t) * a(-t) is even in t: every odd coefficient cancels exactly.
    a_minus = UniPoly([-c if i % 2 else c for i, c in enumerate(a.coeffs)])
    even = a * a_minus
    assert_same(sym_poly(even), sym_poly(a) * sym_poly(a).subs(t, -t))
    assert all(c.is_zero() for c in even.coeffs[1::2])
    assert_no_stored_zero(even.coeffs)

    coeffs = to_basis(ab, seq)
    assert len(coeffs) == ab.degree + 1
    assert_same(sym_combination(coeffs, seq), sym_poly(ab))
    assert_no_stored_zero(coeffs)

    rebuilt = from_basis(a.coeffs, seq)
    assert_same(sym_poly(rebuilt), sym_combination(a.coeffs, seq))
    assert_no_stored_zero(rebuilt.coeffs)

    structure = product_in_basis(seq, m, n)
    assert_same(sym_combination(structure, seq), sym_poly(seq[m]) * sym_poly(seq[n]))
    assert_no_stored_zero(structure)
    assert structure == to_basis(seq[m] * seq[n], seq)


def test_chebyshev_matches_sympy():
    # sympy's Chebyshev polynomials of the first kind give
    # T_n(t) = 2 * chebyshevt(n, t / 2) for n >= 1; the normalization
    # pins T_0 = 1 where that formula gives 2.
    assert chebyshev(0) == UniPoly([1])
    for n in range(1, 61):
        want = sympy.Poly(2 * sympy.chebyshevt_poly(n, t / 2), t).all_coeffs()[::-1]
        assert chebyshev(n) == UniPoly(int(c) for c in want), n
