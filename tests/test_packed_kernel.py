"""The packed UniPoly kernel against the dict-buffer reference in conftest.

Every UniPoly operation and basis conversion is compared with the
reference on random Laurent data (exponents in +-20, coefficients up to
2^130) over the Chebyshev, power and custom Laurent sequences, and on
deterministic cases at the edges of the digit widths, on exact
cancellation, and on reductions that outgrow their first frame or width.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ref_from_basis,
    ref_linear,
    ref_mul,
    ref_product_in_basis,
    ref_to_basis,
)
from test_sequences import _Table
from skeincalc import sequences
from skeincalc.laurent import LaurentPoly, ONE, ZERO
from skeincalc.sequences import (
    CHEBYSHEV,
    POWER,
    Sequence,
    UniPoly,
    from_basis,
    product_in_basis,
    to_basis,
)

BIG = 2**130
MAX_DEGREE = 10

laurents = st.dictionaries(st.integers(-20, 20), st.integers(-BIG, BIG), max_size=3).map(
    LaurentPoly
)
unipolys = st.lists(laurents, max_size=MAX_DEGREE + 1).map(UniPoly)


@st.composite
def sequences_(draw):
    kind = draw(st.sampled_from(["chebyshev", "power", "custom"]))
    if kind == "chebyshev":
        return CHEBYSHEV
    if kind == "power":
        return POWER
    table = {}
    for n in range(1, MAX_DEGREE + 1):
        lower = draw(st.dictionaries(st.integers(0, n - 1), laurents, max_size=2))
        table[n] = UniPoly([*(lower.get(i, ZERO) for i in range(n)), ONE])
    return Sequence.custom(table)


def ref_add(a, b, sign=1):
    return ref_linear(((ONE, a.coeffs, 1), (ONE, b.coeffs, sign)))


def assert_matches_reference(a, b, c, seq):
    assert a + b == ref_add(a, b)
    assert a - b == ref_add(a, b, -1)
    assert -a == ref_linear(((ONE, a.coeffs, -1),))
    assert a * c == c * a == ref_linear(((c, a.coeffs, 1),))
    assert a * b == ref_mul(a, b)
    assert to_basis(a, seq) == ref_to_basis(a, seq)
    assert from_basis(a.coeffs, seq) == ref_from_basis(a.coeffs, seq)
    for m in range(0, MAX_DEGREE + 1, 3):
        n = MAX_DEGREE - m
        assert product_in_basis(seq, m, n) == ref_product_in_basis(seq, m, n), (m, n)


def _edge_values():
    for nbytes in (1, 2, 3, 8, 16, 17):
        top = 2 ** (8 * nbytes - 1)
        for v in (top, top - 1, 2 * top):
            yield v
            yield -v


@pytest.mark.parametrize("v", list(_edge_values()))
def test_coefficients_at_digit_edges(v):
    a = UniPoly([v, LaurentPoly({-2: -v, 3: v}), LaurentPoly({0: v, 1: 1}), 1])
    b = UniPoly([LaurentPoly({-20: v}), -v, v])
    seq = Sequence.custom({2: UniPoly([LaurentPoly({-1: v}), -v, 1]), 3: a}, base=POWER)
    for s in (CHEBYSHEV, POWER, seq):
        assert_matches_reference(a, b, LaurentPoly({5: v, -5: -v}), s)
        assert product_in_basis(s, 3, 3) == ref_product_in_basis(s, 3, 3)


def test_exact_cancellation_to_zero():
    x = UniPoly([LaurentPoly({-20: BIG, 20: -BIG}), BIG - 1, 0, LaurentPoly({7: -BIG})])
    y = UniPoly([-BIG, LaurentPoly({1: BIG, -1: BIG}), 1])
    zero = UniPoly()
    assert x - x == x + -x == zero
    assert x * y - y * x == zero
    assert (x + y) * (x - y) - (x * x - y * y) == zero
    assert x * zero == zero * x == x * ZERO == zero
    assert to_basis(zero, CHEBYSHEV) == []
    assert from_basis([ZERO, ZERO], POWER) == zero
    for seq in (CHEBYSHEV, POWER):
        assert from_basis(to_basis(x * y, seq), seq) == x * y


def test_broken_tables_fail_or_agree_like_the_reference():
    rng = random.Random(11)

    def poly(degree):
        return UniPoly(
            [LaurentPoly({rng.randint(-3, 3): rng.randint(-2, 2)}) for _ in range(degree)]
            + [LaurentPoly({rng.randint(-1, 1): rng.choice((1, 1, 2, -1))})]
        )

    outcomes = set()
    for _ in range(300):
        seq = _Table(*(poly(rng.randint(0, 4)) for _ in range(5)))
        p = poly(rng.randint(0, 4))
        try:
            want = ref_to_basis(p, seq)
        except AssertionError:
            with pytest.raises(AssertionError, match="nonzero residual"):
                to_basis(p, seq)
            outcomes.add("residual")
        else:
            assert to_basis(p, seq) == want
            outcomes.add("exact")
    assert outcomes == {"residual", "exact"}


def _count_passes(monkeypatch):
    """Count packing passes: each pass of a basis conversion packs its
    input with one _sum call."""
    calls = []
    real = sequences._sum

    def counting(pairs, *args):
        calls.append(len(pairs))
        return real(pairs, *args)

    monkeypatch.setattr(sequences, "_sum", counting)
    return calls


@pytest.mark.parametrize(
    "low",
    [
        # t + q^5: c_1 = 1 puts q^5 beyond the frame [0, 1] of the input.
        LaurentPoly({5: 1}),
        # t + q^-9 + 10^6: the frame grows downward and the digits widen.
        LaurentPoly({-9: 1, 0: 10**6}),
    ],
)
def test_reduction_outgrowing_its_frame_is_retried(monkeypatch, low):
    # seq[2] reaches q^-30 and q^30, beyond the frame of every input here.
    seq = Sequence.custom(
        {1: UniPoly([low, 1]), 2: UniPoly([LaurentPoly({30: -1, -30: 1}), low, 1])}
    )
    p = UniPoly([0, LaurentPoly({1: 2}), 1])
    calls = _count_passes(monkeypatch)
    assert to_basis(p, seq) == ref_to_basis(p, seq)
    assert len(calls) > 1
    calls.clear()
    assert product_in_basis(seq, 1, 1) == ref_product_in_basis(seq, 1, 1)
    assert len(calls) > 1


def test_wide_digits_are_retried(monkeypatch):
    calls = _count_passes(monkeypatch)
    assert to_basis(UniPoly([0, 1]), POWER) == [ZERO, ONE]
    assert len(calls) == 1
    calls.clear()
    # t has 1-byte digits; subtracting c_1 * (t + 10^6) needs 3 bytes.
    seq = Sequence.custom({1: UniPoly([10**6, 1])})
    assert to_basis(UniPoly([0, 1]), seq) == [LaurentPoly(-(10**6)), ONE]
    assert len(calls) == 2


def test_packs_are_kept_at_own_width_only():
    # p's own exponent width is 4 ([-1, 2]); every frame below is wider.
    p = UniPoly([LaurentPoly({-1: 1, 2: 3}), 1])
    for k in range(3, 40):
        wide = UniPoly([LaurentPoly({0: 1, k: 1})])
        assert p * wide == ref_mul(p, wide)
        assert p + wide == ref_add(p, wide)
    assert p._packs == {}
    for scale in (2, 2**100):
        assert p * scale == ref_linear(((LaurentPoly(scale), p.coeffs, 1),))
    assert sorted(p._packs) == [8, 128]


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(a=unipolys, b=unipolys, c=laurents, seq=sequences_())
def test_every_operation_matches_the_reference(a, b, c, seq):
    assert_matches_reference(a, b, c, seq)
