"""Constraint extraction: loop minimality, arc conditions, audits."""

import json

import pytest

from skeincalc import cli
from skeincalc.laurent import LaurentPoly, ONE, ZERO, q_power
from skeincalc.positivity import (
    CONSISTENT,
    CONTRADICTION,
    PN_Z,
    UNIT,
    loop_product_expansion,
    minimality_constraints,
    p1_zneg,
    p1_zpos,
    q_constraints,
    structure_constant_audit,
)
from skeincalc.sequences import CHEBYSHEV, POWER, Sequence, UniPoly


def plus_one_sequence():
    return Sequence.custom({1: UniPoly([1, 1])}, base=CHEBYSHEV, name="t+1")


class TestLoopProductExpansion:
    def test_pure_chebyshev_level_two(self):
        out = loop_product_expansion(ZERO, [ZERO, ZERO, ONE])
        assert out == {p1_zpos(2): q_power(2), p1_zneg(2): q_power(-2)}

    def test_shifted_p1(self):
        out = loop_product_expansion(ONE, [ZERO, ONE])
        assert out == {
            PN_Z: ONE,
            p1_zpos(1): q_power(1),
            p1_zneg(1): q_power(-1),
            UNIT: -(q_power(1) + q_power(-1)),
        }

    def test_chebyshev_level_one(self):
        out = loop_product_expansion(ZERO, [ZERO, ONE])
        assert out == {p1_zpos(1): q_power(1), p1_zneg(1): q_power(-1)}

    def test_constant_term_vanishes_with_a_zero(self):
        for c in ([ZERO, ONE], [LaurentPoly(5), ZERO, ONE], [ONE, ONE, ONE]):
            out = loop_product_expansion(ZERO, list(c))
            assert UNIT not in out

    def test_rejects_non_monic(self):
        with pytest.raises(ValueError):
            loop_product_expansion(ZERO, [ONE, LaurentPoly(2)])


class TestMinimality:
    def test_chebyshev_consistent_to_10(self):
        for n in range(1, 11):
            report = minimality_constraints(CHEBYSHEV, n)
            assert report.conclusion == CONSISTENT, n
            assert not report.failed()

    def test_plus_one_contradiction_level_one(self):
        # At n = 1 the constant Chebyshev coefficient of P_1 = t + 1 is the
        # shift itself, so d picks up an extra -a*c_0 = -1.
        report = minimality_constraints(plus_one_sequence(), 1)
        assert report.conclusion == CONTRADICTION
        bad = report.failed()
        assert len(bad) == 1
        assert bad[0].label == "d"
        assert bad[0].value == LaurentPoly(-1) - (q_power(1) + q_power(-1))
        assert bad[0].value.eval_q1() == -3

    def test_plus_one_contradiction_level_two(self):
        # At n = 2 the tested entry is T_2 itself, so the only obstruction
        # is the pure d term, worth -2 at q = 1.
        report = minimality_constraints(plus_one_sequence(), 2)
        assert report.conclusion == CONTRADICTION
        bad = report.failed()
        assert len(bad) == 1
        assert bad[0].label == "d"
        assert bad[0].value == -(q_power(2) + q_power(-2))
        assert bad[0].value.eval_q1() == -2

    def test_power_sequence_passes_loop_condition(self):
        # t^2 = T_2 + 2*T_0: nonnegative mix, so the loop-side necessary
        # condition cannot reject the power sequence.
        report = minimality_constraints(POWER, 2)
        assert report.conclusion == CONSISTENT
        assert report.a == ZERO
        assert report.c == (LaurentPoly(2), ZERO, ONE)

    def test_negative_chebyshev_mix_fails(self):
        seq = Sequence.custom({2: UniPoly([1, 0, 1])}, base=CHEBYSHEV, name="t^2+1")
        # t^2 + 1 = T_2 + 3, still a positive mix: consistent.
        assert minimality_constraints(seq, 2).conclusion == CONSISTENT
        seq = Sequence.custom({2: UniPoly([-3, 0, 1])}, base=CHEBYSHEV, name="t^2-3")
        # t^2 - 3 = T_2 - 1: the P_1(z') coefficient is -1.
        report = minimality_constraints(seq, 2)
        assert report.conclusion == CONTRADICTION
        assert any(x.label == "P_1(z')" for x in report.failed())

    def test_d_pair_present_even_when_zero(self):
        report = minimality_constraints(CHEBYSHEV, 3)
        labels = [x.label for x in report.constraints]
        assert "d" in labels and "-d" in labels

    def test_positive_shift_always_contradicts(self, rng):
        # a in the cone, a != 0, and a nonnegative Chebyshev mix: exactly
        # the d requirement fails while -d holds, the mechanized form of
        # "a positive basis forces the shift to vanish".
        from conftest import random_positive
        from skeincalc.sequences import from_basis

        for _ in range(25):
            a = random_positive(rng, span=2, size=2)
            if a.is_zero():
                a = a + ONE
            n = 1 + (hash(str(a)) % 4)
            coeffs = [random_positive(rng, span=1, size=1) for _ in range(n)] + [ONE]
            table = {1: UniPoly([a, 1])}
            if n > 1:
                table[n] = from_basis(coeffs, CHEBYSHEV)
            seq = Sequence.custom(table, base=CHEBYSHEV, name="shifted")
            report = minimality_constraints(seq, n)
            assert report.conclusion == CONTRADICTION
            assert [x.label for x in report.failed()] == ["d"]
            d = next(x.value for x in report.constraints if x.label == "d")
            assert not d.is_zero()
            assert (-d).is_positive()


class TestArcConstraints:
    def test_power_sequence_consistent(self):
        report = q_constraints(POWER, 2)
        assert report.conclusion == CONSISTENT
        assert report.c == (ZERO, ZERO, ONE)

    def test_shifted_q2_fails(self):
        seq = Sequence.custom({2: UniPoly([-1, 0, 1])}, base=POWER, name="t^2-1")
        report = q_constraints(seq, 2)
        assert report.conclusion == CONTRADICTION
        assert any(x.label == "c_0" and x.value == LaurentPoly(-1) for x in report.failed())

    def test_chebyshev_is_not_an_arc_sequence(self):
        report = q_constraints(CHEBYSHEV, 2)
        assert report.conclusion == CONTRADICTION
        bad = {x.label: x.value for x in report.failed()}
        assert bad == {"c_0": LaurentPoly(-2)}

    def test_diagram_check_agrees(self):
        for n in range(1, 4):
            report = q_constraints(POWER, n, diagram_check=True)
            assert report.conclusion == CONSISTENT
            identities = [x for x in report.constraints if x.kind == "identity"]
            assert len(identities) == n
            assert all(x.satisfied for x in identities)

    def test_k_max_truncates(self):
        report = q_constraints(POWER, 3, k_max=1)
        labels = [x.label for x in report.constraints]
        assert labels == ["c_0", "c_1"]


class TestAudit:
    def test_chebyshev_and_power_clean_to_10(self):
        for seq in (CHEBYSHEV, POWER):
            rows = structure_constant_audit(seq, 10).rows
            assert all(r.all_positive for r in rows)

    def test_negative_mix_detected(self):
        seq = Sequence.custom({2: UniPoly([0, -1, 1])}, base=POWER, name="t^2-t")
        rows = structure_constant_audit(seq, 3).rows
        assert any(not r.all_positive for r in rows)

    def test_row_grid(self):
        rows = structure_constant_audit(CHEBYSHEV, 3).rows
        assert {(r.m, r.n) for r in rows} == {
            (m, n) for m in range(4) for n in range(m, 4)
        }


WOBBLE = LaurentPoly({1: 1, -1: -1})  # q - q^-1: outside R_+, but 0 at q = 1

# Loop and arc reports of both reachable conclusions; the wobbles change at q = 1.
REPORTS = {
    "loop t+1": lambda: minimality_constraints(plus_one_sequence(), 2),
    "loop wobble": lambda: minimality_constraints(
        Sequence.custom({1: UniPoly([WOBBLE, 1])}, base=CHEBYSHEV), 2
    ),
    "arc power": lambda: q_constraints(POWER, 2, diagram_check=True),
    "arc wobble": lambda: q_constraints(
        Sequence.custom({2: UniPoly([WOBBLE, 0, 1])}, base=POWER), 2, diagram_check=True
    ),
}


def as_json(report, q1=False):
    return json.loads(cli.emit_report(report, "json", q1))


class TestReportShape:
    def test_json_round_trip_values(self):
        report = minimality_constraints(plus_one_sequence(), 2)
        data = as_json(report)
        assert data["conclusion"] == CONTRADICTION
        d_rows = [c for c in data["constraints"] if c["label"] == "d"]
        assert d_rows == [
            {"label": "d", "value": {"-2": -1, "2": -1}, "required": "R_+", "ok": False}
        ]

    def test_q1_specialization(self):
        report = minimality_constraints(plus_one_sequence(), 2)
        data = as_json(report, q1=True)
        d_rows = [c for c in data["constraints"] if c["label"] == "d"]
        assert d_rows == [{"label": "d", "value": -2, "required": "Z_+", "ok": False}]
        assert data["conclusion"] == CONTRADICTION
        assert report.conclusion_for(q1=True) == CONTRADICTION

    def test_q1_json_carries_the_q1_conclusion(self):
        # a = q - q^-1 breaks R_+ but every value is >= 0 at q = 1.
        seq = Sequence.custom({1: UniPoly([WOBBLE, 1])}, base=CHEBYSHEV)
        report = minimality_constraints(seq, 2)
        assert as_json(report)["conclusion"] == CONTRADICTION
        assert as_json(report, q1=True)["conclusion"] == CONSISTENT
        assert all(x["ok"] for x in as_json(report, q1=True)["constraints"])

    def test_expansion_keys_follow_report_order(self):
        out = loop_product_expansion(ONE, [ONE, ONE, ONE])
        assert list(out) == [
            "1",
            "P_n(z)",
            "P_1(z')",
            "P_1(z_(1,1))",
            "P_1(z_(1,-1))",
            "P_1(z_(1,2))",
            "P_1(z_(1,-2))",
        ]

    @pytest.mark.parametrize("q1", [False, True])
    @pytest.mark.parametrize("make", REPORTS.values(), ids=REPORTS.keys())
    def test_every_format_carries_the_one_conclusion(self, make, q1):
        report = make()
        want = report.conclusion_for(q1)
        assert as_json(report, q1)["conclusion"] == want
        assert cli.emit_report(report, "tsv", q1).splitlines()[-1] == f"conclusion\t{want}"
        assert cli.emit_report(report, "text", q1).splitlines()[-1] == f"conclusion: {want}"

    def test_wobble_reports_change_conclusion_at_q1(self):
        for name in ("loop wobble", "arc wobble"):
            report = REPORTS[name]()
            assert report.conclusion == CONTRADICTION, name
            assert report.conclusion_for(q1=True) == CONSISTENT, name

    def test_symbol_order_positive_first(self):
        report = minimality_constraints(CHEBYSHEV, 2)
        assert [s for s, _ in report.table] == ["P_1(z_(1,2))", "P_1(z_(1,-2))"]
