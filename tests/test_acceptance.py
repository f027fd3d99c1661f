"""Acceptance suite: the nine exit criteria, all exact, desk scale.

Each test prints one pass/fail line; run with `pytest -s
tests/test_acceptance.py` to see them.  Every comparison is exact ring
equality (zero tolerance); the two big expansions carry the stated time
budgets.
"""

import json
import time

from conftest import collect_loop_windings, random_laurent, random_positive
from skeincalc.cli import main as cli_main
from skeincalc.diagram import (
    build_d1_xy,
    build_kink,
    build_theta_over_cores,
    build_xk_yn,
    build_zkn,
)
from skeincalc.laurent import LaurentPoly, ONE, ZERO, q_power
from skeincalc.positivity import (
    CONSISTENT,
    CONTRADICTION,
    minimality_constraints,
    q_constraints,
)
from skeincalc.sequences import CHEBYSHEV, POWER, Sequence, UniPoly, chebyshev
from skeincalc.skein import (
    DiskMatching,
    LOOP_VALUE,
    SkeinVector,
    full_boundary_ideal,
    grid_ideal,
    normal_form,
    resolve_all,
    resolve_all_mod,
    theta_bullet,
    theta_transport_target,
)


def report(n, text):
    print(f"criterion {n}: PASS - {text}")


def test_criterion_1_theta_transport():
    t0 = time.perf_counter()
    for n in range(1, 11):
        assert build_theta_over_cores(n).crossing_count == n  # <= 2^10 states
        assert theta_bullet(chebyshev(n)) == theta_transport_target(n), n
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0, f"transport sweep took {elapsed:.2f}s"
    report(1, f"arc transport of T_n exact for n <= 10 ({elapsed:.2f}s)")


def test_criterion_2_grid_quotient():
    t0 = time.perf_counter()
    for n in range(1, 5):
        for k in range(1, n + 1):
            got = resolve_all_mod(build_xk_yn(k, n), grid_ideal(n))
            want = normal_form(build_zkn(k, n)).scaled(q_power(-k * n))
            assert got == want, (k, n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"grid sweep took {elapsed:.2f}s"
    report(2, f"x^k y_n quotient exact for k <= n <= 4 ({elapsed:.2f}s)")


def test_criterion_3_d1_quotient_vanishes():
    d = build_d1_xy()
    assert resolve_all_mod(d, full_boundary_ideal(d.surface)).is_zero()
    report(3, "xy lands entirely in the boundary ideal of the 4-marked disk")


def test_criterion_4_chebyshev_product_law():
    from skeincalc.sequences import product_in_basis

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
            assert all(c.is_positive() for c in coeffs)
    report(4, "T_m T_n = T_(m+n) + T_(m-n) with positive constants, m,n <= 20")


def test_criterion_5_loop_minimality():
    from skeincalc.positivity import UNIT, loop_product_expansion

    for n in range(1, 11):
        assert minimality_constraints(CHEBYSHEV, n).conclusion == CONSISTENT
    shifted = Sequence.custom({1: UniPoly([1, 1])}, base=CHEBYSHEV, name="t+1")
    # Refutation of the shifted sequence.  The advertised violated element
    # -(q + q^-1) is the constant term of the formal expansion with
    # (a, c) = (1, (0, 1)); at level 1 a normalized sequence forces
    # c_0 = a, which adds -a*c_0, so the sequence-level run shows
    # -1 - q - q^-1 there and the pure -(q^n + q^-n) from level 2 on.
    assert loop_product_expansion(ONE, [ZERO, ONE])[UNIT] == -(
        q_power(1) + q_power(-1)
    )
    rep1 = minimality_constraints(shifted, 1)
    assert rep1.conclusion == CONTRADICTION
    (bad1,) = rep1.failed()
    assert bad1.label == "d"
    assert bad1.value == LaurentPoly(-1) - (q_power(1) + q_power(-1))
    rep2 = minimality_constraints(shifted, 2)
    assert rep2.conclusion == CONTRADICTION
    (bad2,) = rep2.failed()
    assert bad2.value == -(q_power(2) + q_power(-2))
    assert bad2.value.eval_q1() == -2
    report(5, "Chebyshev consistent to n = 10; t+1 refuted by its d term, -2 at q=1")


def test_criterion_6_arc_condition():
    rep = q_constraints(Sequence.custom({2: chebyshev(2)}, base=POWER, name="T2"), 2)
    assert rep.conclusion == CONTRADICTION
    assert any(x.label == "c_0" and x.value == LaurentPoly(-2) for x in rep.failed())
    for n in range(1, 5):
        rep = q_constraints(POWER, n, diagram_check=True)
        assert rep.conclusion == CONSISTENT
        assert all(x.satisfied for x in rep.constraints if x.kind == "identity")
    report(6, "Q_2 = T_2 refuted (c_0 = -2); power sequence passes with diagram cross-check")


def test_criterion_7_framing_and_chirality():
    empty = DiskMatching((), ())
    minus_q3 = LaurentPoly({3: -1})
    plus = resolve_all(build_kink(1))
    minus = resolve_all(build_kink(-1))
    assert plus == SkeinVector.single(empty, minus_q3 * LOOP_VALUE)
    assert minus == SkeinVector.single(empty, LaurentPoly({-3: -1}) * LOOP_VALUE)
    # The n = 1 transport case pins the global smoothing chirality: the
    # mirrored rule would swap theta_1 and theta_-1 and fail here.
    from skeincalc.skein import AioArc

    lhs = theta_bullet(chebyshev(1))
    assert lhs == theta_transport_target(1)
    mirror = SkeinVector({AioArc(1): q_power(-1), AioArc(-1): q_power(1)})
    assert lhs != mirror
    report(7, "kinks carry -q^3 / -q^-3 framing factors; chirality pinned at n = 1")


def test_criterion_8_invariant_suites(rng, capsys):
    # Ring axioms.
    for _ in range(150):
        a, b, c = (random_laurent(rng) for _ in range(3))
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    # Positive cone closure.
    for _ in range(150):
        a, b = random_positive(rng), random_positive(rng)
        assert (a + b).is_positive() and (a * b).is_positive()
    # x + y = 0 with both in the cone forces x = y = 0.
    for _ in range(150):
        x = random_positive(rng)
        if (-x).is_positive():
            assert x == ZERO
    # Loop windings encountered while resolving the transport diagrams.
    windings = set()
    for k in range(0, 5):
        windings |= collect_loop_windings(build_theta_over_cores(k))
    assert windings <= {0, 1}
    # Determinism of reports across parallelism degrees.
    outs = []
    for jobs in ("1", "2"):
        code = cli_main(
            ["verify-zkn", "--k", "2", "--n", "5", "--format", "json", "--jobs", jobs]
        )
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["ok"] is True
    report(8, "ring axioms, cone closure, winding bounds, parallel determinism")


def test_criterion_9_frontier_ranges():
    t0 = time.perf_counter()
    for n in range(1, 9):
        for k in range(1, n + 1):
            got = resolve_all_mod(build_xk_yn(k, n), grid_ideal(n), cap=64)
            want = normal_form(build_zkn(k, n)).scaled(q_power(-k * n))
            assert got == want, (k, n)
    grid_s = time.perf_counter() - t0
    assert grid_s < 30.0, f"grid sweep took {grid_s:.2f}s"
    t0 = time.perf_counter()
    for n in range(1, 21):
        assert theta_bullet(chebyshev(n)) == theta_transport_target(n), n
    transport_s = time.perf_counter() - t0
    assert transport_s < 2.0, f"transport sweep took {transport_s:.2f}s"
    report(
        9,
        f"x^k y_n quotient exact for k <= n <= 8 ({grid_s:.2f}s, up to 2^64 states); "
        f"arc transport exact for n <= 20 ({transport_s:.2f}s)",
    )
