"""Ground ring: exact arithmetic, the positive cone, q = 1 specialization."""

import pytest

from conftest import random_laurent, random_positive
from skeincalc.laurent import LaurentPoly, ONE, Q, ZERO, q_power


def lp(d):
    return LaurentPoly(d)


class TestArithmetic:
    def test_add_cancellation(self):
        assert lp({1: 1, -1: 1}) + lp({-1: -1}) == Q

    def test_add_identity(self):
        x = lp({3: 2, 0: -1})
        assert ZERO + x == x
        assert x + 0 == x

    def test_add_like_terms(self):
        assert lp({2: 1}) + lp({2: 1}) == lp({2: 2})

    def test_mul_inverse_pair(self):
        assert Q * q_power(-1) == ONE

    def test_mul_loop_value_squared(self):
        delta = lp({2: -1, -2: -1})
        assert delta * delta == lp({4: 1, 0: 2, -4: 1})

    def test_mul_annihilation(self):
        x = lp({5: 3, -2: 7})
        assert x * ZERO == ZERO

    def test_int_coercion(self):
        assert 2 * Q - Q == Q
        assert (Q + 1) * (Q - 1) == lp({2: 1, 0: -1})

    def test_pow(self):
        assert (Q + 1) ** 0 == ONE
        assert Q**3 == q_power(3)

    def test_shifted(self):
        assert lp({0: 1, 2: -1}).shifted(-2) == lp({-2: 1, 0: -1})

    def test_ring_axioms_random(self, rng):
        for _ in range(200):
            a, b, c = (random_laurent(rng) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + ZERO == a
            assert a * ONE == a
            assert a - b == a + (-b)
            assert b - a == -(a - b)
            for x in (a + b, a - b, a * b, -a, a.shifted(3)):
                assert 0 not in x.terms().values()

    def test_dot_is_sum_of_products(self, rng):
        for _ in range(100):
            pairs = [(random_laurent(rng), random_laurent(rng)) for _ in range(rng.randint(0, 4))]
            want = ZERO
            for a, b in pairs:
                want = want + a * b
            got = LaurentPoly.dot(pairs)
            assert got == want
            assert 0 not in got.terms().values()

    def test_dot_cancels_to_zero(self):
        assert LaurentPoly.dot([(Q, Q), (-Q, Q)]) == ZERO
        assert LaurentPoly.dot([]).is_zero()


class TestPositiveCone:
    def test_examples(self):
        assert lp({3: 1, -1: 2}).is_positive()
        assert not lp({3: -1}).is_positive()
        assert ZERO.is_positive()

    def test_closure_random(self, rng):
        for _ in range(200):
            a, b = random_positive(rng), random_positive(rng)
            assert (a + b).is_positive()
            assert (a * b).is_positive()

    def test_meets_negative_only_in_zero(self, rng):
        # x and -x both in the cone forces x = 0.
        for _ in range(300):
            a = random_laurent(rng)
            if a.is_positive() and (-a).is_positive():
                assert a == ZERO
        assert ZERO.is_positive() and (-ZERO).is_positive()

    def test_sum_of_positives_vanishing(self, rng):
        # x, y in the cone with x + y = 0 forces x = y = 0.
        for _ in range(200):
            x = random_positive(rng)
            y = -x
            if y.is_positive():
                assert x == ZERO and y == ZERO


class TestEvalQ1:
    def test_examples(self):
        assert lp({1: 1, -1: 1}).eval_q1() == 2
        assert lp({2: -1, -2: -1}).eval_q1() == -2
        assert ZERO.eval_q1() == 0

    def test_ring_homomorphism_random(self, rng):
        for _ in range(200):
            a, b = random_laurent(rng), random_laurent(rng)
            assert (a + b).eval_q1() == a.eval_q1() + b.eval_q1()
            assert (a * b).eval_q1() == a.eval_q1() * b.eval_q1()


class TestIdentity:
    def test_zero_terms_are_stripped(self):
        assert lp({1: 0, 2: 3}) == lp({2: 3})
        assert lp({0: 0}) == ZERO
        assert not lp({0: 0})

    @pytest.mark.parametrize(
        "terms",
        [{0: 0.7}, {0: 1.0}, {0: "1"}, {0.5: 1}, {"1": 1}, {0: None}, 1.5, "3", [1]],
    )
    def test_constructor_takes_exact_input_only(self, terms):
        with pytest.raises(TypeError):
            LaurentPoly(terms)

    def test_bool_constant_is_stored_as_int(self):
        assert type(LaurentPoly(True).coefficient(0)) is int
        assert LaurentPoly(True).to_json_dict() == {"0": 1}

    def test_hashable_and_structural(self, rng):
        for _ in range(100):
            a = random_laurent(rng)
            b = LaurentPoly(a.terms())
            assert a == b and hash(a) == hash(b)

    def test_constants_hash_like_ints(self):
        assert len({LaurentPoly(3), 3}) == 1
        assert hash(ZERO) == hash(0)
        assert hash(LaurentPoly(-7)) == hash(-7)

    def test_immutability(self):
        with pytest.raises(AttributeError):
            Q._terms = {}


class TestSerialization:
    def test_round_trip_examples(self):
        x = lp({1: 1, -1: 1})
        assert x.to_json_dict() == {"-1": 1, "1": 1}
        assert LaurentPoly.from_json_dict(x.to_json_dict()) == x

    def test_round_trip_random(self, rng):
        for _ in range(200):
            a = random_laurent(rng)
            assert LaurentPoly.from_json_dict(a.to_json_dict()) == a

    @pytest.mark.parametrize(
        "data",
        [
            {"0": 0.7},
            {"0": 1.0},
            {"0": "1"},
            {"0": True},
            {"0": None},
            {"1.5": 1},
            {"x": 1},
            {" 1": 1},
            {1: 1},
            {"1": 1, "01": 2},
        ],
    )
    def test_rejects_inexact_input(self, data):
        with pytest.raises(ValueError):
            LaurentPoly.from_json_dict(data)

    def test_big_coefficients(self):
        big = lp({0: 10**40, -7: -(3**80)})
        assert LaurentPoly.from_json_dict(big.to_json_dict()) == big
        assert (big * big).coefficient(-14) == 3**160


class TestRendering:
    def test_ascending_exponents(self):
        assert str(lp({2: -1, -2: -1})) == "-q^-2 - q^2"
        assert str(lp({1: 1, -1: 1})) == "q^-1 + q"
        assert str(ZERO) == "0"
        assert str(lp({0: 5})) == "5"
        assert str(lp({1: -1})) == "-q"
        assert str(lp({-3: 2, 0: 1})) == "2q^-3 + 1"
