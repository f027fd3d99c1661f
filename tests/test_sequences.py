"""Normalized sequences, basis conversion, and annulus-level products."""

import pytest

import skeincalc
from conftest import random_laurent
from skeincalc import sequences
from skeincalc.laurent import LaurentPoly, ONE, ZERO
from skeincalc.sequences import (
    CHEBYSHEV,
    POWER,
    MissingEntry,
    Sequence,
    UniPoly,
    chebyshev,
    from_basis,
    power,
    product_in_basis,
    to_basis,
)


class TestChebyshev:
    def test_base_cases(self):
        assert chebyshev(0) == UniPoly([1])
        assert chebyshev(1) == UniPoly([0, 1])
        assert chebyshev(2) == UniPoly([-2, 0, 1])

    def test_t3(self):
        assert chebyshev(3) == UniPoly([0, -3, 0, 1])

    def test_recursion(self):
        t = UniPoly([0, 1])
        for n in range(3, 301):
            assert chebyshev(n) == t * chebyshev(n - 1) - chebyshev(n - 2)

    def test_monic_of_degree(self):
        for n in range(51):
            p = chebyshev(n)
            assert p.degree == n
            assert p.is_monic()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            chebyshev(-1)

    def test_deep_index_needs_no_recursion(self):
        p = chebyshev(1000)
        assert p.degree == 1000
        assert p.coeffs[-1] == ONE
        for n in (1, 2, 3, 10, 999, 1000):
            for t, want in ((2, 2), (-2, 2 * (-1) ** n)):
                value = sum(c.coefficient(0) * t**i for i, c in enumerate(chebyshev(n).coeffs))
                assert value == want, (n, t)

    @pytest.mark.parametrize("make", [chebyshev, power])
    def test_rejects_inexact_index(self, make):
        make(3)  # a cached entry must not let a float index through
        with pytest.raises(TypeError):
            make(3.0)


class TestPower:
    def test_examples(self):
        assert power(0) == UniPoly([1])
        assert power(1) == UniPoly([0, 1])
        assert power(4) == UniPoly([0, 0, 0, 0, 1])


class TestToBasis:
    def test_t_squared_in_chebyshev(self):
        assert to_basis(power(2), CHEBYSHEV) == [LaurentPoly(2), ZERO, ONE]

    def test_t_in_chebyshev(self):
        assert to_basis(power(1), CHEBYSHEV) == [ZERO, ONE]

    def test_t3_cheb_in_power(self):
        assert to_basis(chebyshev(3), POWER) == [ZERO, LaurentPoly(-3), ZERO, ONE]

    def test_zero_polynomial(self):
        assert to_basis(UniPoly(), CHEBYSHEV) == []

    def test_length(self):
        for n in range(8):
            assert len(to_basis(chebyshev(n), POWER)) == n + 1

    def test_round_trip_random(self, rng):
        for seq in (CHEBYSHEV, POWER):
            for _ in range(40):
                p = UniPoly([random_laurent(rng, span=3, size=2) for _ in range(rng.randint(0, 6))])
                coeffs = to_basis(p, seq)
                assert from_basis(coeffs, seq) == p
                assert to_basis(from_basis(coeffs, seq), seq) == coeffs


def _Table(*polys):
    """A bare lookup table that skips the monic-of-degree-n checks."""
    return Sequence("table", polys.__getitem__)


class TestToBasisResidual:
    @pytest.mark.parametrize(
        "seq",
        [
            _Table(UniPoly([1]), UniPoly([0, 2])),
            _Table(UniPoly([1]), UniPoly([0, 1, 1])),
            _Table(UniPoly([1]), UniPoly([1])),
        ],
    )
    def test_broken_sequence_leaves_a_residual(self, seq):
        with pytest.raises(AssertionError, match="nonzero residual"):
            to_basis(UniPoly([0, 1]), seq)

    def test_cancelling_excess_is_exact(self):
        seq = _Table(UniPoly([1, 0, 0, -1]), UniPoly([0, 1, 0, 1]))
        p = UniPoly([1, 1])
        assert to_basis(p, seq) == [ONE, ONE]
        assert from_basis([ONE, ONE], seq) == p

    def test_reads_only_entries_it_needs(self):
        seq = Sequence.custom({2: UniPoly([0, 1, 1])})
        assert to_basis(UniPoly([0, 2, 2]), seq) == [ZERO, ZERO, LaurentPoly(2)]


class TestProductInBasis:
    def test_cheb_2_times_1(self):
        coeffs = product_in_basis(CHEBYSHEV, 2, 1)
        assert coeffs == [ZERO, ONE, ZERO, ONE]

    def test_cheb_square(self):
        coeffs = product_in_basis(CHEBYSHEV, 1, 1)
        assert coeffs == [LaurentPoly(2), ZERO, ONE]

    def test_power_monomials(self):
        coeffs = product_in_basis(POWER, 2, 3)
        assert coeffs == [ZERO] * 5 + [ONE]

    def test_chebyshev_product_law_to_20(self):
        # The closed form T_m T_n = T_{m+n} + T_{m-n} (doubled constant at
        # m = n), checked against brute-force multiplication + conversion.
        for m in range(1, 21):
            for n in range(1, m + 1):
                coeffs = product_in_basis(CHEBYSHEV, m, n)
                expected = {m + n: ONE}
                if m == n:
                    expected[0] = LaurentPoly(2)
                else:
                    expected[m - n] = ONE
                got = {i: c for i, c in enumerate(coeffs) if not c.is_zero()}
                assert got == expected, (m, n)

    @pytest.mark.parametrize("m, n", [(-1, 2), (2, -1)])
    def test_rejects_negative_index(self, m, n):
        for seq in (CHEBYSHEV, POWER, Sequence.custom({1: UniPoly([1, 1])}, base=POWER)):
            with pytest.raises(ValueError, match="must be nonnegative"):
                product_in_basis(seq, m, n)

    def test_structure_constants_positive_to_20(self):
        for seq in (CHEBYSHEV, POWER):
            for m in range(21):
                for n in range(m, 21):
                    assert all(
                        c.is_positive() for c in product_in_basis(seq, m, n)
                    ), (seq.name, m, n)


class TestCustomSequence:
    def test_override_with_base(self):
        seq = Sequence.custom({1: UniPoly([1, 1])}, base=CHEBYSHEV)
        assert seq[1] == UniPoly([1, 1])
        assert seq[2] == chebyshev(2)
        assert seq[0] == UniPoly([1])

    def test_rejects_nonmonic(self):
        with pytest.raises(ValueError):
            Sequence.custom({2: UniPoly([0, 0, 2])})

    def test_rejects_wrong_degree(self):
        with pytest.raises(ValueError):
            Sequence.custom({2: UniPoly([0, 1])})

    def test_rejects_inexact_index(self):
        with pytest.raises(TypeError):
            Sequence.custom({1.5: UniPoly([0, 1])})

    @pytest.mark.parametrize("n", [1.0, 1.5])
    def test_lookup_rejects_inexact_index(self, n):
        seq = Sequence.custom({1: UniPoly([0, 1])})
        with pytest.raises(TypeError):
            seq[n]

    def test_rejects_bad_constant(self):
        with pytest.raises(ValueError):
            Sequence.custom({0: UniPoly([2])})

    def test_missing_entry(self):
        seq = Sequence.custom({1: UniPoly([0, 1])})
        with pytest.raises(MissingEntry):
            seq[3]


def test_sequence_is_the_one_sequence_type():
    assert skeincalc.Sequence is Sequence
    assert type(CHEBYSHEV) is type(POWER) is type(Sequence.custom({})) is Sequence
    for old in ("SequenceSpec", "ChebyshevSequence", "PowerSequence", "CustomSequence"):
        assert not hasattr(sequences, old) and not hasattr(skeincalc, old)


class TestUniPoly:
    def test_trailing_zeros_stripped(self):
        assert UniPoly([1, 0, 0]).degree == 0
        assert UniPoly([0, 0, 0]).is_zero()

    def test_str(self):
        assert str(chebyshev(3)) == "t^3 - 3t"
        assert str(UniPoly()) == "0"
        assert str(UniPoly([LaurentPoly({1: 1, -1: 1}), 1])) == "t + (q^-1 + q)"

    def test_scalar_mul(self):
        assert chebyshev(2) * LaurentPoly(2) == UniPoly([-4, 0, 2])
        assert chebyshev(2) * 0 == UniPoly()

    def test_add_sub_neg(self):
        a, b = chebyshev(3), UniPoly([1, 3, 0, -1])
        assert a + b == UniPoly([1, 0])
        assert a - b == UniPoly([-1, -6, 0, 2])
        assert -a == UniPoly([0, 3, 0, -1])
        assert a - a == UniPoly()

    @pytest.mark.parametrize("coeffs", [[1.5], ["3"], [0, 2.0]])
    def test_takes_exact_input_only(self, coeffs):
        with pytest.raises(TypeError):
            UniPoly(coeffs)
