"""The resolution engine: normal forms, full expansion, quotients."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    closed_braid,
    collect_loop_windings,
    enumerate_states,
    fold_resolve,
    open_braid,
    resolve_crossing,
    scan_resolve,
)
from skeincalc.diagram import (
    Annulus,
    Diagram,
    Disk,
    build_core_stack,
    build_d1_xy,
    build_kink,
    build_theta_over_cores,
    build_xk_yn,
    build_zkn,
    make_edge,
)
from skeincalc import skein
from skeincalc.cli import vector_json
from skeincalc.laurent import LaurentPoly, ONE, q_power
from skeincalc.sequences import UniPoly, chebyshev, power
from skeincalc.skein import (
    AioArc,
    AnnulusPower,
    CrossingCapExceeded,
    DiskMatching,
    IdealSpec,
    LOOP_VALUE,
    SkeinVector,
    StructureError,
    full_boundary_ideal,
    grid_ideal,
    normal_form,
    resolve_all,
    resolve_all_mod,
    theta_bullet,
    theta_transport_target,
)

EMPTY_DISK = DiskMatching((), ())


class TestClassify:
    def test_core_stack(self):
        d = build_core_stack(2)
        assert d.loops == (1, 1) and not d.edges
        assert normal_form(d) == SkeinVector.single(AnnulusPower(2), ONE)

    def test_theta_zero(self):
        assert normal_form(build_theta_over_cores(0)) == SkeinVector.single(AioArc(0), ONE)

    def test_zkn_11(self):
        d = build_zkn(1, 1)
        assert d.loops == ()
        ((elem, coeff),) = normal_form(d).items()
        assert coeff == ONE
        assert sorted(elem.chord_pairs()) == [("p0", "q1"), ("p1", "p2")]

    def test_rejects_crossings(self):
        with pytest.raises(ValueError, match="crossingless"):
            normal_form(build_kink(1))


class TestNormalForm:
    def test_trivial_loop_scalar(self):
        d = Diagram(surface=Annulus(), loops=(0,))
        assert normal_form(d) == SkeinVector.single(AnnulusPower(0), LOOP_VALUE)

    def test_core_stack_is_basis(self):
        assert normal_form(build_core_stack(3)) == SkeinVector.single(
            AnnulusPower(3), ONE
        )

    def test_cap_kills_disk_diagram(self):
        # Negative at the first column, positive where the second vertical
        # meets the first row: the second vertical start is routed west and
        # back down to p0, a same-endpoint arc, which kills the state.
        d = build_xk_yn(2, 2)
        for cid, sign in [("E0101", -1), ("E0201", +1), ("E0102", -1), ("E0202", -1)]:
            d = resolve_crossing(d, cid, sign)
        assert any(e.a[1] == e.b[1] == "p0" for e in d.edges)
        assert normal_form(d).is_zero()

    def test_every_cap_state_is_zero(self):
        for signs, state in enumerate_states(build_xk_yn(2, 2)):
            if any(e.a[1] == e.b[1] for e in state.edges):
                assert normal_form(state).is_zero()

    def test_rejects_crossings(self):
        with pytest.raises(ValueError):
            normal_form(build_theta_over_cores(1))

    def test_rejects_essential_loop_next_to_arc(self):
        base = build_theta_over_cores(0)
        bad = Diagram(
            surface=base.surface,
            crossings=base.crossings,
            edges=base.edges,
            loops=(1,),
            slots=base.slots,
        )
        with pytest.raises(StructureError):
            normal_form(bad)

    def test_rejects_overwound_loop(self):
        d = Diagram(surface=Annulus(), loops=(2,))
        with pytest.raises(StructureError):
            normal_form(d)


class TestResolveAll:
    def test_theta_one_core(self):
        assert resolve_all(build_theta_over_cores(1)) == SkeinVector(
            {AioArc(1): q_power(1), AioArc(-1): q_power(-1)}
        )

    def test_kink_framing_factors(self):
        delta = LOOP_VALUE
        plus = resolve_all(build_kink(1))
        minus = resolve_all(build_kink(-1))
        assert plus == SkeinVector.single(EMPTY_DISK, q_power(3) * LaurentPoly(-1) * delta)
        assert minus == SkeinVector.single(
            EMPTY_DISK, q_power(-3) * LaurentPoly(-1) * delta
        )

    def test_crossingless_passthrough(self):
        assert resolve_all(build_core_stack(2)) == SkeinVector.single(
            AnnulusPower(2), ONE
        )

    def test_matches_fold_resolver(self):
        # The frontier against the independent single-crossing fold,
        # across every builder family.
        cases = [
            build_kink(1),
            build_kink(-1),
            build_theta_over_cores(2),
            build_theta_over_cores(3),
            build_xk_yn(1, 2),
            build_xk_yn(2, 2),
            build_d1_xy(),
        ]
        for d in cases:
            assert resolve_all(d) == fold_resolve(d)

    def test_state_count_and_coefficient_shape(self):
        # 2^c states; each state's skein weight is q^(#pos - #neg).
        d = build_xk_yn(2, 2)
        states = list(enumerate_states(d))
        assert len(states) == 2 ** d.crossing_count
        total = SkeinVector.zero()
        for signs, state in states:
            j = sum(1 for s in signs if s > 0)
            weight = q_power(2 * j - len(signs))
            total = total + normal_form(state).scaled(weight)
        assert total == resolve_all(d)

    def test_cap_refusal(self):
        with pytest.raises(CrossingCapExceeded) as info:
            resolve_all(build_xk_yn(2, 3), cap=5)
        assert str(info.value) == "diagram has 6 crossings; the expansion cap is 5"

    def test_rejects_winding_disk_loop(self):
        # The arc a@0-a@1 kills every state before the loop is looked at,
        # so without the check resolve_all returned 0 here.
        d = Diagram(
            surface=Disk(("a", "b")),
            edges=frozenset({make_edge(("B", "a", 0), ("B", "a", 1))}),
            loops=(1,),
            slots=(("a", 2),),
        )
        for check in (Diagram.validate, resolve_all, normal_form):
            with pytest.raises(ValueError, match="free loops cannot wind on a disk"):
                check(d)

    def test_rejects_repeated_crossing_id(self):
        # Without the check this validated, and resolve_all returned
        # 1 + q^2 + q^4 + q^6: the first copy's ports were never joined
        # to anything, and the frontier read them as attached to node -1.
        k = build_kink(1)
        d = Diagram(k.surface, k.crossings * 2, k.edges)
        for check in (Diagram.validate, resolve_all):
            with pytest.raises(ValueError, match="crossing ids must be distinct"):
                check(d)

    def test_rejects_repeated_slot_point(self):
        # Without the check this validated, leaving the first p0 slot as
        # a node no edge reaches.
        d1, z = build_d1_xy(), build_zkn(1, 1)
        for d, check in ((d1, Diagram.validate), (d1, resolve_all), (z, normal_form)):
            bad = Diagram(d.surface, d.crossings, d.edges, d.loops, d.slots + (("p0", 1),))
            with pytest.raises(ValueError, match="slot list names a marked point twice"):
                check(bad)

    def test_each_call_compiles_once(self, monkeypatch):
        compiled = []
        compile_ports = Diagram.ports
        monkeypatch.setattr(Diagram, "ports", lambda d: compiled.append(d) or compile_ports(d))
        d, z = build_xk_yn(2, 2), build_zkn(2, 2)
        calls = [
            lambda: d.validate(),
            lambda: resolve_all(d),
            lambda: resolve_all_mod(d, grid_ideal(2)),
            lambda: normal_form(z),
        ]
        for call in calls:
            compiled.clear()
            call()
            assert len(compiled) == 1

    def test_validates_before_resolving(self):
        d = build_xk_yn(2, 2)
        broken = Diagram(
            surface=d.surface,
            crossings=d.crossings,
            edges=frozenset(sorted(d.edges, key=lambda e: (e.a, e.b))[1:]),
            slots=d.slots,
        )
        with pytest.raises(ValueError, match="edge ends do not cover every port"):
            resolve_all(broken)

    def test_cap_is_checked_before_validation(self):
        d = build_xk_yn(2, 2)
        broken = Diagram(d.surface, d.crossings, frozenset(), (), d.slots)
        with pytest.raises(CrossingCapExceeded):
            resolve_all(broken, cap=3)

    def test_annulus_windings_stay_small(self):
        for k in range(4):
            assert collect_loop_windings(build_theta_over_cores(k)) <= {0, 1}
        assert collect_loop_windings(build_xk_yn(2, 2)) <= {0}


class TestResolveAllMod:
    def test_d1_boundary_quotient_is_zero(self):
        d = build_d1_xy()
        assert resolve_all_mod(d, full_boundary_ideal(d.surface)).is_zero()

    def test_xy_mod_gamma0(self):
        got = resolve_all_mod(build_xk_yn(1, 1), grid_ideal(1))
        want = normal_form(build_zkn(1, 1)).scaled(q_power(-1))
        assert got == want

    def test_x2y2(self):
        got = resolve_all_mod(build_xk_yn(2, 2), grid_ideal(2))
        want = normal_form(build_zkn(2, 2)).scaled(q_power(-4))
        assert got == want

    def test_grid_identity_through_3(self):
        for n in range(1, 4):
            for k in range(1, n + 1):
                got = resolve_all_mod(build_xk_yn(k, n), grid_ideal(n))
                want = normal_form(build_zkn(k, n)).scaled(q_power(-k * n))
                assert got == want, (k, n)

    def test_generators_must_be_adjacent(self):
        d = build_xk_yn(1, 2)
        with pytest.raises(ValueError):
            resolve_all_mod(d, IdealSpec.of_pairs([("p0", "p2")]))

    def test_disk_only(self):
        with pytest.raises(ValueError):
            resolve_all_mod(
                build_theta_over_cores(1), IdealSpec.of_pairs([("p1", "p2")])
            )


class TestThetaBullet:
    def test_t2(self):
        assert theta_bullet(chebyshev(2)) == theta_transport_target(2)

    def test_constant(self):
        assert theta_bullet(UniPoly([1])) == SkeinVector.single(AioArc(0), ONE)

    def test_power_two(self):
        expected = SkeinVector(
            {AioArc(2): q_power(2), AioArc(-2): q_power(-2), AioArc(0): LaurentPoly(2)}
        )
        assert theta_bullet(power(2)) == expected

    def test_transport_identity_through_6(self):
        for n in range(1, 7):
            assert theta_bullet(chebyshev(n)) == theta_transport_target(n), n

    def test_each_diagram_resolved_once(self, monkeypatch):
        calls = []
        real = skein._resolve

        def counting(*args):
            calls.append(args[0].crossing_count)
            return real(*args)

        monkeypatch.setattr(skein, "_resolve", counting)
        skein._theta_over_cores.cache_clear()
        try:
            for j in range(1, 15):
                assert theta_bullet(chebyshev(j)) == theta_transport_target(j), j
        finally:
            skein._theta_over_cores.cache_clear()
        assert sorted(calls) == list(range(15))

    def test_cap_refusal_is_not_cached(self):
        for _ in range(2):
            with pytest.raises(CrossingCapExceeded):
                theta_bullet(power(3), cap=2)
        assert theta_bullet(power(3), cap=3) == theta_bullet(power(3))

    def test_laurent_coefficients_pass_through(self):
        p = UniPoly([LaurentPoly({2: 3}), 0, ONE])
        got = theta_bullet(p)
        want = theta_bullet(power(2)) + SkeinVector.single(AioArc(0), LaurentPoly({2: 3}))
        assert got == want


class TestSkeinVector:
    def test_zero_coefficients_dropped(self):
        v = SkeinVector({AioArc(1): LaurentPoly()})
        assert v.is_zero() and len(v) == 0

    def test_add_cancels(self):
        v = SkeinVector.single(AioArc(1), q_power(1))
        assert (v - v).is_zero()

    def test_canonical_order(self):
        v = theta_transport_target(2) + SkeinVector.single(AioArc(0), ONE)
        assert [b.n for b in v] == [2, 0, -2]

    def test_str_examples(self):
        assert str(theta_transport_target(1)) == "q·theta_1 + q^-1·theta_-1"
        assert str(SkeinVector.zero()) == "0"
        assert str(SkeinVector.single(AnnulusPower(3), ONE)) == "z^3"

    def test_json(self):
        v = theta_transport_target(1)
        assert vector_json(v) == [
            {"basis": "theta_1", "coeff": {"1": 1}},
            {"basis": "theta_-1", "coeff": {"-1": 1}},
        ]

    def test_label_heights_only_when_stacked(self):
        ((elem, _),) = normal_form(build_zkn(1, 1)).items()
        assert elem.label() == "chords[(p0,q1),(p1,p2)]"
        ((elem2, _),) = normal_form(build_zkn(2, 2)).items()
        assert "@" in elem2.label()


# Keys of one vector share field values across types: AnnulusPower(m) and
# AioArc(m) hold the same int, and the disk chord ends at slot m.
def basis_key(kind: str, m: int):
    if kind == "z":
        return AnnulusPower(m)
    if kind == "theta":
        return AioArc(m)
    return DiskMatching(("p0", "p1"), (("p0", 0, "p1", m),))


laurents = st.dictionaries(st.integers(-3, 3), st.integers(-2, 2), max_size=3).map(LaurentPoly)
raw_vectors = st.dictionaries(
    st.tuples(st.sampled_from(("z", "theta", "disk")), st.integers(0, 2)), laurents, max_size=6
)


def oracle_add(x: dict, y: dict, sign: int = 1) -> dict:
    """x + sign*y on {(kind, m): LaurentPoly}, zeros dropped."""
    out = dict(x)
    for k, c in y.items():
        out[k] = out.get(k, LaurentPoly()) + c * LaurentPoly(sign)
    return {k: c for k, c in out.items() if not c.is_zero()}


def oracle_scale(x: dict, s: LaurentPoly) -> dict:
    return {k: c * s for k, c in x.items() if not (c * s).is_zero()}


def as_vector(raw: dict) -> SkeinVector:
    return SkeinVector({basis_key(*k): c for k, c in raw.items()})


class TestSkeinVectorArithmetic:
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(raw_vectors, raw_vectors, raw_vectors, laurents, laurents)
    def test_matches_dict_oracle(self, x, y, z, s, t):
        u, v, w = as_vector(x), as_vector(y), as_vector(z)
        assert len(u) == sum(not c.is_zero() for c in x.values())
        cases = [
            (u + v, oracle_add(x, y)),
            (u - v, oracle_add(x, y, -1)),
            (u.scaled(s), oracle_scale(x, s)),
            (u.scaled(-2), oracle_scale(x, LaurentPoly(-2))),
        ]
        for got, want in cases:
            assert got == as_vector(want)
            assert len(got) == len(want)
            assert all(not c.is_zero() for _, c in got.items())
        assert u + v == v + u and hash(u + v) == hash(v + u)
        assert (u + v) + w == u + (v + w)
        assert (u + v).scaled(s) == u.scaled(s) + v.scaled(s)
        assert u.scaled(s) + u.scaled(t) == u.scaled(s + t)
        assert u.scaled(s).scaled(t) == u.scaled(s * t)
        assert (u - u).is_zero() and u - v == u + v.scaled(-1)
        backwards = as_vector(dict(reversed(list(x.items()))))
        assert backwards == u and hash(backwards) == hash(u)


@st.composite
def partial_diagrams(draw):
    """A builder diagram with a random subset of its crossings resolved
    with random signs, and on marked disks a random set of boundary-arc
    generators (None when the set is empty)."""
    family = draw(st.sampled_from(("xkyn", "theta", "kink")))
    if family == "xkyn":
        d = build_xk_yn(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    elif family == "theta":
        d = build_theta_over_cores(draw(st.integers(0, 6)))
    else:
        d = build_kink(draw(st.sampled_from((1, -1))))
    for cr in d.crossings:
        sign = draw(st.sampled_from((0, 1, -1)))
        if sign:
            d = resolve_crossing(d, cr.id, sign)
    ideal = None
    if isinstance(d.surface, Disk) and d.surface.points:
        ideal = boundary_arc_ideal(draw, d.surface.points)
    return d, ideal


def boundary_arc_ideal(draw, pts) -> IdealSpec | None:
    """A random set of at most 4 boundary arcs of the disk with points pts,
    as an ideal (None when the set is empty)."""
    adjacent = [(pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts))]
    gens = draw(st.lists(st.sampled_from(adjacent), max_size=4, unique=True))
    return IdealSpec.of_pairs(gens) if gens else None


@st.composite
def braid_closures(draw):
    """A braid word of 2-5 strands and at most 8 letters of random signs,
    using every generator so that every position carries a crossing, with
    shuffled crossing ids, and the surface it is closed on."""
    strands = draw(st.integers(2, 5))
    extra = draw(st.lists(st.integers(1, strands - 1), max_size=9 - strands))
    letters = draw(st.permutations(list(range(1, strands)) + extra))
    word = [draw(st.sampled_from((1, -1))) * i for i in letters]
    ids = draw(st.permutations(range(len(word))))
    return word, ids, draw(st.sampled_from((Disk(), Annulus())))


@st.composite
def open_braids(draw):
    """A braid word of 2-5 strands and at most 12 letters of random signs,
    with shuffled crossing ids, run across a marked disk; neighbouring
    strands share a bottom or top point at random, so those points carry
    several height slots.  Returns the open_braid arguments and a random
    boundary-arc ideal of its disk (None when empty)."""
    strands = draw(st.integers(2, 5))
    letter = st.integers(1, strands - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    length = draw(st.integers(0, 12))
    word = draw(st.lists(letter, min_size=length, max_size=length))
    ids = draw(st.permutations(range(len(word))))

    def ends(side: str) -> list[str]:
        new_point = draw(st.lists(st.booleans(), min_size=strands - 1, max_size=strands - 1))
        return [f"{side}{k}" for k in itertools.accumulate(new_point, initial=0)]

    bottom, top = ends("b"), ends("t")
    points = open_braid([], bottom, top).surface.points
    return (word, bottom, top, ids), boundary_arc_ideal(draw, points)


class TestFrontierAgainstOracles:
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(partial_diagrams())
    def test_matches_scan_and_fold(self, case):
        d, ideal = case
        if ideal is None:
            got = resolve_all(d)
            assert got == fold_resolve(d)
        else:
            got = resolve_all_mod(d, ideal)
        assert got == scan_resolve(d, ideal)

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(braid_closures())
    def test_closed_braids_match_scan_and_fold(self, case):
        word, ids, surface = case
        d = closed_braid(word, surface, ids)
        got = resolve_all(d)
        assert got == scan_resolve(d) == fold_resolve(d)
        assert got == resolve_all(closed_braid(word, surface))

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(open_braids())
    def test_open_braids_match_scan_and_fold(self, case):
        (word, bottom, top, ids), ideal = case

        def resolve(d):
            return resolve_all(d) if ideal is None else resolve_all_mod(d, ideal)

        d = open_braid(word, bottom, top, ids)
        got = resolve(d)
        if ideal is None:
            assert got == fold_resolve(d)
        assert got == scan_resolve(d, ideal) == resolve(open_braid(word, bottom, top))

    def test_open_braid_shared_points_and_ideal_kill(self):
        # The negative smoothing of sigma_1 joins the two ends at b0, and
        # the two at t0: that state dies, and the arc b0-t0 kills the other.
        d = open_braid([1], ["b0", "b0"], ["t0", "t0"])
        assert d.slots == (("b0", 2), ("t0", 2))
        got = resolve_all(d)
        assert [c for _, c in got.items()] == [q_power(1)]
        assert resolve_all_mod(d, IdealSpec.of_pairs([("b0", "t0")])).is_zero()
