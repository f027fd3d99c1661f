"""Builders, diagram invariants, and crossing resolution."""

import random

import pytest

from conftest import diagram_json, resolve_crossing
from skeincalc.diagram import (
    Annulus,
    Crossing,
    Disk,
    MarkedAnnulus,
    build_core_stack,
    build_d1_xy,
    build_kink,
    build_theta_over_cores,
    build_xk_yn,
    build_zkn,
    disk_surface,
    make_edge,
    resolve_crossings,
    smoothing_pairs,
)
from skeincalc.skein import AioArc, SkeinVector, normal_form


def all_builders():
    yield build_core_stack(0)
    yield build_core_stack(3)
    yield build_theta_over_cores(0)
    yield build_theta_over_cores(2)
    yield build_xk_yn(2, 3)
    yield build_zkn(2, 3)
    yield build_d1_xy()
    yield build_kink(1)
    yield build_kink(-1)


class TestBuilders:
    def test_core_stack(self):
        d = build_core_stack(3)
        assert isinstance(d.surface, Annulus)
        assert d.crossing_count == 0 and not d.edges
        assert d.loops == (1, 1, 1)
        assert build_core_stack(0).loops == ()

    def test_theta_over_cores_counts(self):
        for k in range(4):
            d = build_theta_over_cores(k)
            assert isinstance(d.surface, MarkedAnnulus)
            assert d.crossing_count == k
            assert d.slot_count("p1") == 1 and d.slot_count("p2") == 1

    def test_xk_yn_crossing_count(self):
        for k in range(1, 4):
            for n in range(1, 5):
                assert build_xk_yn(k, n).crossing_count == k * n

    def test_xk_yn_surface_layout(self):
        d = build_xk_yn(2, 5)
        assert d.surface == disk_surface(5)
        assert d.surface.points == (
            "p0", "p1", "p2", "p3", "p4", "p5", "p6", "q5", "q4", "q3", "q2", "q1",
        )
        assert d.slot_count("p0") == 2 and d.slot_count("p6") == 2
        assert d.slot_count("p3") == 1 and d.slot_count("q2") == 1

    def test_xk_yn_ids_are_unique_past_99_strands(self):
        # With two digits per strand, (10, 101) and (101, 1) both gave E10101.
        d = build_xk_yn(101, 101)
        assert len({c.id for c in d.crossings}) == 101 * 101
        d.validate()
        ids = [c.id for c in build_xk_yn(2, 3).crossings]
        assert ids == ["E0101", "E0102", "E0103", "E0201", "E0202", "E0203"]

    def test_theta_ids_follow_arc_order_past_99_loops(self):
        # With two digits, c100 sorted between c10 and c11, so the resolver
        # stopped walking the arc in order and theta:150 took seconds.
        d = build_theta_over_cores(150)
        other = {}
        for e in d.edges:
            other[e.a], other[e.b] = e.b, e.a
        walk, end = [], other["B", "p1", 0]
        while end[0] == "X":
            walk.append(end[1])
            end = other["X", end[1], 2]
        assert walk == [c.id for c in d.crossings] and len(walk) == 150
        d.validate()
        assert [c.id for c in build_theta_over_cores(3).crossings] == ["c01", "c02", "c03"]

    def test_xk_yn_rejects_zero(self):
        with pytest.raises(ValueError):
            build_xk_yn(0, 1)
        with pytest.raises(ValueError):
            build_xk_yn(1, 0)

    def test_zkn_rejects_k_above_n(self):
        with pytest.raises(ValueError):
            build_zkn(3, 2)

    def test_d1(self):
        d = build_d1_xy()
        assert d.surface.points == ("p0", "p1", "p2", "q1")
        assert d.crossing_count == 1
        assert len(d.edges) == 4

    def test_kink(self):
        for s in (1, -1):
            d = build_kink(s)
            assert d.surface == Disk()
            assert d.crossing_count == 1
            assert len(d.edges) == 2
        with pytest.raises(ValueError):
            build_kink(0)

    def test_all_builders_validate(self):
        for d in all_builders():
            d.validate()


class TestResolveCrossing:
    def test_decreases_count_and_validates(self):
        d = build_xk_yn(2, 2)
        for cid in [c.id for c in d.crossings]:
            before = d.crossing_count
            d = resolve_crossing(d, cid, -1)
            assert d.crossing_count == before - 1
            d.validate()
        assert d.crossing_count == 0

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            resolve_crossing(build_kink(1), "nope", 1)

    def test_kink_positive_smoothing_two_loops(self):
        d = resolve_crossing(build_kink(1), "k0", +1)
        assert d.crossing_count == 0
        assert d.loops == (0, 0)

    def test_kink_negative_smoothing_one_loop(self):
        d = resolve_crossing(build_kink(1), "k0", -1)
        assert d.loops == (0,)

    def test_theta_positive_gives_winding_one(self):
        # The chirality calibration case: one positive smoothing of the
        # arc-over-core crossing leaves the arc winding +1.
        d = resolve_crossing(build_theta_over_cores(1), "c01", +1)
        assert d.loops == ()
        assert normal_form(d) == SkeinVector.single(AioArc(1))

    def test_theta_negative_gives_winding_minus_one(self):
        d = resolve_crossing(build_theta_over_cores(1), "c01", -1)
        assert normal_form(d) == SkeinVector.single(AioArc(-1))

    def test_zkn_equals_negative_fold(self):
        for n in range(1, 7):
            for k in range(1, n + 1):
                d = build_xk_yn(k, n)
                for cid in [c.id for c in d.crossings]:
                    d = resolve_crossing(d, cid, -1)
                z = build_zkn(k, n)
                assert (z.loops, z.edges, z.slots) == (d.loops, d.edges, d.slots), (k, n)
                assert z == d

    def test_batch_equals_fold_for_mixed_signs(self):
        rng = random.Random(7)
        for d in [build_xk_yn(3, 4), build_theta_over_cores(5), build_kink(1)]:
            for _ in range(5):
                cids = [c.id for c in d.crossings]
                picked = rng.sample(cids, rng.randint(1, len(cids)))
                signs = {cid: rng.choice((1, -1)) for cid in picked}
                folded = d
                for cid in sorted(signs):
                    folded = resolve_crossing(folded, cid, signs[cid])
                assert resolve_crossings(d, signs) == folded
                folded.validate()

    @pytest.mark.parametrize("signs", [{"k0": 0}, {"k0": 1, "nope": 1}])
    def test_batch_rejects_bad_sign_or_id(self, signs):
        with pytest.raises(ValueError):
            resolve_crossings(build_kink(1), signs)


def expected_staircase_chords(k: int, n: int):
    """Closed form for the all-negative state of the k-by-n grid, derived
    by tracing the staircase paths by hand: every vertical start turns
    east then climbs, every horizontal start climbs then turns east."""
    chords = []
    for j in range(1, k + 1):
        chords.append(("p0", j - 1, f"q{j}", 0))
    for m in range(1, n - k + 1):
        chords.append((f"p{m}", 0, f"q{m + k}", 0))
    for m in range(n - k + 1, n + 1):
        chords.append((f"p{m}", 0, f"p{n + 1}", k - (n - m + 1)))
    return chords


class TestZknStaircaseOracle:
    def test_matches_closed_form(self):
        for n in range(1, 5):
            for k in range(1, n + 1):
                nf = normal_form(build_zkn(k, n))
                ((elem, coeff),) = nf.items()
                assert coeff == 1
                order = {p: i for i, p in enumerate(elem.points)}
                expected = sorted(
                    expected_staircase_chords(k, n),
                    key=lambda c: (order[c[0]], c[1], order[c[2]], c[3]),
                )
                assert list(elem.chords) == expected, (k, n)


class TestPrimitives:
    def test_smoothing_pairs(self):
        assert smoothing_pairs((0, 2), +1) == ((0, 1), (2, 3))
        assert smoothing_pairs((0, 2), -1) == ((0, 3), (2, 1))
        assert smoothing_pairs((1, 3), +1) == ((1, 2), (3, 0))
        assert smoothing_pairs((1, 3), -1) == ((1, 0), (3, 2))

    def test_make_edge_normalizes(self):
        a = ("B", "p1", 0)
        b = ("X", "c01", 2)
        assert make_edge(b, a, 5) == make_edge(a, b, -5)

    def test_crossing_over_validation(self):
        with pytest.raises(ValueError):
            Crossing("x", (0, 1))

    def test_validate_catches_dangling_port(self):
        d = build_kink(1)
        broken = type(d)(
            surface=d.surface,
            crossings=d.crossings,
            edges=frozenset(list(d.edges)[:1]),
            loops=d.loops,
            slots=d.slots,
        )
        with pytest.raises(ValueError):
            broken.validate()


class TestSerialization:
    def test_json_shape(self):
        d = build_theta_over_cores(1)
        data = diagram_json(d)
        assert data["surface"] == {"kind": "marked_annulus"}
        assert data["crossings"] == [{"id": "c01", "over": [0, 2]}]
        assert data["endpoints"] == {"p1": 1, "p2": 1}
        assert sorted(e["seam"] for e in data["edges"]) == [0, 0, 1]

    def test_json_deterministic(self):
        import json

        d = build_xk_yn(2, 2)
        assert json.dumps(diagram_json(d)) == json.dumps(diagram_json(d))
