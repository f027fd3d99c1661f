"""The frontier against an oracle outside the package's conventions: the
Jones polynomial of torus knots (Jones, Ann. Math. 126, 1987), which
Kauffman's state model (Topology 26, 1987) ties to the bracket.

For coprime p, q the torus knot T(p, q) is the closure of
(sigma_1 ... sigma_{p-1})^q, with writhe w = (p-1)q, and

    V(t) = t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) + t^(p+q)) / (1 - t^2).

The resolver's value counts every loop, the last one included, so
V(q^-4) = resolve_all / delta * (-q^3)^(-w) with delta = -q^2 - q^-2.
Both sides are compared times delta (1 - t^2), so nothing is divided.
"""

from math import gcd

import pytest

from conftest import closed_braid
from skeincalc import LOOP_VALUE, ONE, LaurentPoly, resolve_all
from skeincalc.laurent import q_power
from skeincalc.skein import DiskMatching

EMPTY_DISK = DiskMatching((), ())

# (p-1)q crossings each: 24 knots, up to 65 crossings for T(6,13).
TORUS_KNOTS = [
    (2, 3), (2, 5), (2, 7), (2, 11), (2, 61),
    (3, 2), (3, 4), (3, 5), (3, 7), (3, 8), (3, 31),
    (4, 3), (4, 5), (4, 7), (4, 19),
    (5, 2), (5, 3), (5, 6), (5, 16),
    (6, 5), (6, 7), (6, 13),
    (7, 3), (7, 9),
]


def jones_identity_holds(p: int, q: int, t_exp: int) -> bool:
    """Whether the resolved closure of T(p, q) matches V(t) at t = q^t_exp."""
    word = list(range(1, p)) * q
    writhe = len(word)
    value = resolve_all(closed_braid(word), cap=writhe)
    assert list(value) == [EMPTY_DISK]

    def t(k: int) -> LaurentPoly:
        return q_power(t_exp * k)

    lhs = value.coefficient(EMPTY_DISK) * LaurentPoly((-1) ** writhe)
    lhs = lhs * q_power(-3 * writhe) * (ONE - t(2))
    numerator = ONE - t(p + 1) - t(q + 1) + t(p + q)
    return lhs == LOOP_VALUE * t((p - 1) * (q - 1) // 2) * numerator


@pytest.mark.parametrize("p,q", TORUS_KNOTS, ids=[f"T({p},{q})" for p, q in TORUS_KNOTS])
def test_torus_knot_bracket_gives_jones(p, q):
    assert gcd(p, q) == 1
    assert jones_identity_holds(p, q, -4)


def test_mirror_substitution_fails():
    # Torus knots are chiral, so t = q^4 (the mirror image's V) must not match.
    assert not jones_identity_holds(2, 3, 4)
    assert not jones_identity_holds(3, 4, 4)
