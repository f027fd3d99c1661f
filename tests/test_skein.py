"""The resolution engine: normal forms, full expansion, quotients."""

import itertools
from math import comb

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import (
    at_minus_one,
    closed_braid,
    closure_parity,
    collect_loop_windings,
    enumerate_states,
    fold_resolve,
    open_braid,
    resolve_crossing,
    scan_resolve,
    tl_closed_braid,
    tl_open_braid,
    wide_closed_braid,
)
from skeincalc.diagram import (
    Annulus,
    Crossing,
    Diagram,
    Disk,
    Edge,
    MarkedAnnulus,
    build_core_stack,
    build_d1_xy,
    build_kink,
    build_theta_over_cores,
    build_xk_yn,
    build_zkn,
    make_edge,
)
import skeincalc
from skeincalc import skein
from skeincalc._run import vector_json
from skeincalc.laurent import LaurentPoly, ONE, q_power
from skeincalc.sequences import POWER, UniPoly, chebyshev
from skeincalc.skein import (
    AioArc,
    AnnulusPower,
    CaseResult,
    CrossingCapExceeded,
    DiskMatching,
    FrontierBudgetExceeded,
    IdealSpec,
    LOOP_VALUE,
    SkeinVector,
    StructureError,
    full_boundary_ideal,
    grid_identity,
    grid_ideal,
    normal_form,
    resolve_all,
    resolve_all_mod,
    theta_bullet,
    theta_transport_target,
)

EMPTY_DISK = DiskMatching((), ())
COVER = "edge ends do not cover every port and endpoint exactly once"


def move_end(d: Diagram, old, new) -> Diagram:
    """d with the edge end old replaced by new, which need not be valid."""
    edges = {Edge(*(new if x == old else x for x in (e.a, e.b)), e.seam) for e in d.edges}
    return Diagram(d.surface, d.crossings, frozenset(edges), d.loops)


class TestClassify:
    def test_core_stack(self):
        d = build_core_stack(2)
        assert d.loops == (1, 1) and not d.edges
        assert normal_form(d) == SkeinVector({AnnulusPower(2): ONE})

    def test_theta_zero(self):
        assert normal_form(build_theta_over_cores(0)) == SkeinVector({AioArc(0): ONE})

    def test_zkn_11(self):
        d = build_zkn(1, 1)
        assert d.loops == ()
        ((elem, coeff),) = normal_form(d).items()
        assert coeff == ONE
        assert sorted((a, b) for a, _, b, _ in elem.chords) == [("p0", "q1"), ("p1", "p2")]

    def test_rejects_crossings(self):
        with pytest.raises(ValueError, match="crossingless"):
            normal_form(build_kink(1))


class TestNormalForm:
    def test_trivial_loop_scalar(self):
        d = Diagram(surface=Annulus(), loops=(0,))
        assert normal_form(d) == SkeinVector({AnnulusPower(0): LOOP_VALUE})

    def test_core_stack_is_basis(self):
        assert normal_form(build_core_stack(3)) == SkeinVector({AnnulusPower(3): ONE})

    def test_cap_kills_disk_diagram(self):
        # Negative at the first column, positive where the second vertical
        # meets the first row: the second vertical start is routed west and
        # back down to p0, a same-endpoint arc, which kills the state.
        d = build_xk_yn(2, 2)
        for cid, sign in [("E1.1", -1), ("E2.1", +1), ("E1.2", -1), ("E2.2", -1)]:
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
        )
        with pytest.raises(StructureError):
            normal_form(bad)

    @pytest.mark.parametrize("point", ["p1", "p2"])
    def test_rejects_marked_annulus_arc_back_to_its_point(self, point):
        # Such an arc is no theta_n; it used to be read as theta_1 at p1
        # and theta_-1 at p2.
        edge = make_edge(("B", point, 0), ("B", point, 1), 1)
        d = Diagram(MarkedAnnulus(), edges=frozenset({edge}))
        with pytest.raises(StructureError, match="exactly one arc, from p1 to p2"):
            normal_form(d)

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
        assert plus == SkeinVector({EMPTY_DISK: q_power(3) * LaurentPoly(-1) * delta})
        assert minus == SkeinVector({EMPTY_DISK: q_power(-3) * LaurentPoly(-1) * delta})

    def test_crossingless_passthrough(self):
        assert resolve_all(build_core_stack(2)) == SkeinVector({AnnulusPower(2): ONE})

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
        total = SkeinVector()
        for signs, state in states:
            j = sum(1 for s in signs if s > 0)
            weight = q_power(2 * j - len(signs))
            total = total + normal_form(state).scaled(weight)
        assert total == resolve_all(d)

    def test_cap_refusal(self):
        with pytest.raises(CrossingCapExceeded) as info:
            resolve_all(build_xk_yn(2, 3), cap=5)
        assert str(info.value) == "diagram has 6 crossings; the expansion cap is 5"

    def test_grid_identity_refuses_over_cap_before_building(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a grid over the cap was built")

        for name in ("build_xk_yn", "build_zkn"):
            monkeypatch.setattr(skein, name, refuse)
        with pytest.raises(CrossingCapExceeded) as info:
            grid_identity(5, 5, 24)
        assert str(info.value) == "xkyn:5,5 has 25 crossings; the expansion cap is 24"

    def test_frontier_budget_admits_its_own_size(self, monkeypatch):
        # xkyn:1,N peaks at 2^N partial states: 2^10 fits a budget of 2^10,
        # and 2^11 does not.
        monkeypatch.setattr(skein, "MAX_FRONTIER_STATES", 1 << 10)
        assert len(resolve_all(build_xk_yn(1, 10))) == 1 << 10
        with pytest.raises(FrontierBudgetExceeded) as info:
            resolve_all(build_xk_yn(1, 11))
        assert str(info.value) == (
            "diagram holds more than 1024 partial states at crossing 11 of 11; "
            "the frontier budget is 1024"
        )
        monkeypatch.setattr(skein, "MAX_FRONTIER_STATES", (1 << 10) - 1)
        with pytest.raises(FrontierBudgetExceeded, match="at crossing 10 of 10;"):
            resolve_all(build_xk_yn(1, 10))

    def test_rejects_winding_disk_loop(self):
        # The arc a@0-a@1 kills every state before the loop is looked at,
        # so without the check resolve_all returned 0 here.
        d = Diagram(
            surface=Disk(("a", "b")),
            edges=frozenset({make_edge(("B", "a", 0), ("B", "a", 1))}),
            loops=(1,),
        )
        for check in (Diagram.ports, resolve_all, normal_form):
            with pytest.raises(ValueError, match="free loops cannot wind on a disk"):
                check(d)

    def test_rejects_repeated_crossing_id(self):
        # Without the check this validated, and resolve_all returned
        # 1 + q^2 + q^4 + q^6: the first copy's ports were never joined
        # to anything, and the frontier read them as attached to node -1.
        k = build_kink(1)
        d = Diagram(k.surface, k.crossings * 2, k.edges)
        for check in (Diagram.ports, resolve_all):
            with pytest.raises(ValueError, match="crossing ids must be distinct"):
                check(d)

    @pytest.mark.parametrize(
        "d, old, new, words",
        [
            # A point the surface lacks has no slot for the end to take.
            (build_zkn(1, 1), ("B", "p0", 0), ("B", "p9", 0), "unknown marked point 'p9'"),
            # The heights at a point with m ends must be 0..m-1: {1}, then {0, 2}.
            (build_zkn(1, 1), ("B", "p0", 0), ("B", "p0", 1), COVER),
            (build_zkn(2, 2), ("B", "p0", 1), ("B", "p0", 2), COVER),
        ],
        ids=["unknown-point", "heights-1", "heights-0-2"],
    )
    def test_rejects_misplaced_boundary_end(self, d, old, new, words):
        bad = move_end(d, old, new)
        for check in (Diagram.ports, resolve_all, normal_form):
            with pytest.raises(ValueError, match=words):
                check(bad)

    @pytest.mark.parametrize(
        "end",
        [
            "p0",
            5,
            None,
            (),
            ("B",),
            ("B", "p0"),
            ("B", "p0", "0"),
            ("B", "p0", 0.5),
            ("B", "p0", None),
            ("B", "p0", 0, 0),
        ],
    )
    def test_rejects_malformed_attachment(self, end):
        bad = move_end(build_d1_xy(), ("B", "p0", 0), end)
        for check in (Diagram.ports, resolve_all):
            with pytest.raises(ValueError, match=COVER):
                check(bad)

    def test_each_call_compiles_once(self, monkeypatch):
        compiled = []
        compile_ports = Diagram.ports
        monkeypatch.setattr(Diagram, "ports", lambda d: compiled.append(d) or compile_ports(d))
        d, z = build_xk_yn(2, 2), build_zkn(2, 2)
        calls = [
            lambda: d.ports(),
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
        )
        with pytest.raises(ValueError, match="edge ends do not cover every port"):
            resolve_all(broken)

    def test_cap_is_checked_before_validation(self):
        d = build_xk_yn(2, 2)
        broken = Diagram(d.surface, d.crossings, frozenset(), ())
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

    @pytest.mark.parametrize("n", [0, -1])
    def test_grid_ideal_needs_a_grid(self, n):
        # The kink's unmarked disk once asked for grid_ideal(-1) and got an
        # empty ideal, so the quotient silently was no quotient.
        with pytest.raises(ValueError, match="grid ideal is defined for n >= 1"):
            grid_ideal(n)


class TestThetaBullet:
    def test_t2(self):
        assert theta_bullet(chebyshev(2)) == theta_transport_target(2)

    def test_constant(self):
        assert theta_bullet(UniPoly([1])) == SkeinVector({AioArc(0): ONE})

    def test_power_two(self):
        expected = SkeinVector(
            {AioArc(2): q_power(2), AioArc(-2): q_power(-2), AioArc(0): LaurentPoly(2)}
        )
        assert theta_bullet(POWER[2]) == expected

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
                theta_bullet(POWER[3], cap=2)
        assert theta_bullet(POWER[3], cap=3) == theta_bullet(POWER[3])

    def test_refuses_before_building_any_arc(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an arc was built before the largest one was refused")

        monkeypatch.setattr(skein, "build_theta_over_cores", refuse)
        skein._theta_over_cores.cache_clear()
        with pytest.raises(CrossingCapExceeded) as info:
            theta_bullet(chebyshev(30), cap=24)
        assert str(info.value) == "theta:30 has 30 crossings; the expansion cap is 24"

    def test_laurent_coefficients_pass_through(self):
        p = UniPoly([LaurentPoly({2: 3}), 0, ONE])
        got = theta_bullet(p)
        want = theta_bullet(POWER[2]) + SkeinVector({AioArc(0): LaurentPoly({2: 3})})
        assert got == want


class TestSkeinVector:
    def test_zero_coefficients_dropped(self):
        v = SkeinVector({AioArc(1): LaurentPoly()})
        assert v.is_zero() and len(v) == 0

    def test_add_cancels(self):
        v = SkeinVector({AioArc(1): q_power(1)})
        assert (v - v).is_zero()

    def test_canonical_order(self):
        v = theta_transport_target(2) + SkeinVector({AioArc(0): ONE})
        assert [b.n for b in v] == [2, 0, -2]

    def test_str_examples(self):
        assert str(theta_transport_target(1)) == "q·theta_1 + q^-1·theta_-1"
        assert str(SkeinVector()) == "0"
        assert str(SkeinVector({AnnulusPower(3): ONE})) == "z^3"

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
    using every generator so that every position carries a crossing, a
    random order of its crossing tuple, and the surface it is closed on."""
    strands = draw(st.integers(2, 5))
    extra = draw(st.lists(st.integers(1, strands - 1), max_size=9 - strands))
    letters = draw(st.permutations(list(range(1, strands)) + extra))
    word = [draw(st.sampled_from((1, -1))) * i for i in letters]
    order = draw(st.permutations(range(len(word))))
    return word, order, draw(st.sampled_from((Disk(), Annulus())))


@st.composite
def open_braids(draw):
    """A braid word of 2-5 strands and at most 12 letters of random signs,
    with a random order of its crossing tuple, run across a marked disk;
    neighbouring strands share a bottom or top point at random, so those
    points carry several height slots.  Returns the open_braid arguments
    and a random boundary-arc ideal of its disk (None when empty)."""
    strands = draw(st.integers(2, 5))
    letter = st.integers(1, strands - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    length = draw(st.integers(0, 12))
    word = draw(st.lists(letter, min_size=length, max_size=length))
    order = draw(st.permutations(range(len(word))))
    bottom, top = shared_ends(draw, strands, "b"), shared_ends(draw, strands, "t")
    points = open_braid([], bottom, top).surface.points
    return (word, bottom, top, order), boundary_arc_ideal(draw, points)


def shared_ends(draw, strands: int, side: str) -> list[str]:
    """The marked points of one side's strand ends, left to right: each
    strand starts a new point or shares its left neighbour's at random."""
    new_point = draw(st.lists(st.booleans(), min_size=strands - 1, max_size=strands - 1))
    return [f"{side}{k}" for k in itertools.accumulate(new_point, initial=0)]


@st.composite
def long_open_braids(draw):
    """A braid word of 2-6 strands and 40-200 letters of random signs, the
    length drawn first, run across a marked disk in word order, with ends
    shared as open_braids shares them.  In about half the draws on 3 or
    more strands no letter touches the last strand, which is then one
    edge from its bottom point to its top point.  Returns the open_braid
    arguments and, in about half the draws, a random boundary-arc ideal
    of its disk (None otherwise, or when it draws no arc)."""
    length = draw(st.integers(40, 200))
    strands = draw(st.integers(2, 6))
    touched = strands - draw(st.booleans()) if strands > 2 else strands
    letter = st.integers(1, touched - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    word = draw(st.lists(letter, min_size=length, max_size=length))
    bottom, top = shared_ends(draw, strands, "b"), shared_ends(draw, strands, "t")
    points = open_braid([], bottom, top).surface.points
    ideal = boundary_arc_ideal(draw, points) if draw(st.booleans()) else None
    return (word, bottom, top), ideal


# Shrinking re-runs a test on every candidate it tries: the 2^c scan and
# fold oracles on a braid, or the frontier on closures of up to 200 letters.
# A fault that also stops frontier states from merging can keep it running
# for minutes; the failing example is printed without it.
LONG_WORD_PHASES = [Phase.generate]


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

    @settings(
        max_examples=100, derandomize=True, deadline=None, database=None, phases=LONG_WORD_PHASES
    )
    @given(braid_closures())
    def test_closed_braids_match_scan_and_fold(self, case):
        word, order, surface = case
        d = closed_braid(word, surface, order)
        got = resolve_all(d)
        assert got == scan_resolve(d) == fold_resolve(d)
        assert got == resolve_all(closed_braid(word, surface))

    def test_essential_loop_closed_on_a_wide_frontier(self):
        # In this order the frontier closes a loop around the core while six
        # paths are open; a draw of 100 random closures reaches such a state
        # for about one seed in twenty.
        word, order = [1, 2, 1, 1, 2, 2, 3, 3], [0, 2, 6, 4, 3, 5, 1, 7]
        d = closed_braid(word, Annulus(), order)
        assert resolve_all(d) == scan_resolve(d) == fold_resolve(d)

    @settings(
        max_examples=40, derandomize=True, deadline=None, database=None, phases=LONG_WORD_PHASES
    )
    @given(open_braids())
    def test_open_braids_match_scan_and_fold(self, case):
        (word, bottom, top, order), ideal = case

        def resolve(d):
            return resolve_all(d) if ideal is None else resolve_all_mod(d, ideal)

        d = open_braid(word, bottom, top, order)
        got = resolve(d)
        if ideal is None:
            assert got == fold_resolve(d)
        assert got == scan_resolve(d, ideal) == resolve(open_braid(word, bottom, top))

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(open_braids())
    def test_open_braid_chords_in_marked_point_order(self, case):
        # Read off the surface and the edges, not through ports(): every
        # chord lists its lower end first by (index in surface.points,
        # height), the chords strictly increase in that order, and each
        # boundary end of the diagram is used exactly once.
        (word, bottom, top, order), ideal = case
        d = open_braid(word, bottom, top, order)
        index = {p: i for i, p in enumerate(d.surface.points)}
        boundary = [(index[x[1]], x[2]) for e in d.edges for x in (e.a, e.b) if x[0] == "B"]
        assert len(set(boundary)) == len(boundary)
        got = resolve_all(d) if ideal is None else resolve_all_mod(d, ideal)
        for elem in got:
            assert elem.points == d.surface.points
            keys = [((index[a], ha), (index[b], hb)) for a, ha, b, hb in elem.chords]
            assert all(lo < hi for lo, hi in keys)
            assert all(x < y for x, y in zip(keys, keys[1:]))
            assert sorted(end for key in keys for end in key) == sorted(boundary)

    @settings(
        max_examples=12, derandomize=True, deadline=None, database=None, phases=LONG_WORD_PHASES
    )
    @given(long_open_braids())
    def test_long_open_braids_match_temperley_lieb(self, case):
        # conftest.tl_open_braid builds no diagram: it numbers heights and
        # kills chords on its own, so it checks the slot numbering of
        # Diagram.ports(), the ideal kill set and the untouched slot edges.
        (word, bottom, top), ideal = case
        d = open_braid(word, bottom, top)
        assert resolve_all(d, cap=len(word)) == tl_open_braid(word, bottom, top)
        if ideal is not None:
            got = resolve_all_mod(d, ideal, cap=len(word))
            assert got == tl_open_braid(word, bottom, top, ideal)

    def test_open_braid_shared_points_and_ideal_kill(self):
        # The negative smoothing of sigma_1 joins the two ends at b0, and
        # the two at t0: that state dies, and the arc b0-t0 kills the other.
        d = open_braid([1], ["b0", "b0"], ["t0", "t0"])
        assert d.ports()[4] == [("t0", 0), ("t0", 1), ("b0", 0), ("b0", 1)]
        got = resolve_all(d)
        assert [c for _, c in got.items()] == [q_power(1)]
        assert resolve_all_mod(d, IdealSpec.of_pairs([("b0", "t0")])).is_zero()


class TestCrossingOrder:
    """The crossing tuple is the resolution order; the value does not
    depend on it.  The braid oracle tests resolve permuted tuples too."""

    def test_unsorted_ids_resolve_like_their_sorted_twin(self):
        # sigma_1^2 across the disk t0, t1, b1, b0: crossing y below x.
        y, x = Crossing("y", (0, 2)), Crossing("x", (0, 2))
        edges = frozenset(
            {
                make_edge(("B", "b0", 0), ("X", "y", 0)),
                make_edge(("B", "b1", 0), ("X", "y", 3)),
                make_edge(("X", "y", 1), ("X", "x", 0)),
                make_edge(("X", "y", 2), ("X", "x", 3)),
                make_edge(("X", "x", 1), ("B", "t0", 0)),
                make_edge(("X", "x", 2), ("B", "t1", 0)),
            }
        )
        surface = Disk(("t0", "t1", "b1", "b0"))
        d, twin = Diagram(surface, (y, x), edges), Diagram(surface, (x, y), edges)
        d.ports()
        twin.ports()
        assert d != twin
        got = resolve_all(d)
        assert got == resolve_all(twin) == scan_resolve(d)
        assert got == resolve_all(open_braid([1, 1], ["b0", "b1"], ["t0", "t1"]))
        ideal = IdealSpec.of_pairs([("t0", "t1")])
        assert resolve_all_mod(d, ideal) == resolve_all_mod(twin, ideal)


@st.composite
def long_braid_words(draw, min_strands=2, max_letters=100, max_strands=5, min_letters=40):
    """A braid word of min_strands to max_strands strands and min_letters
    to max_letters letters of random signs, using every generator."""
    strands = draw(st.integers(min_strands, max_strands))
    letter = st.integers(1, strands - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    extra = draw(
        st.lists(letter, min_size=min_letters + 1 - strands, max_size=max_letters + 1 - strands)
    )
    first = [draw(st.sampled_from((i, -i))) for i in range(1, strands)]
    return draw(st.permutations(first + extra))


class TestParity:
    @settings(
        max_examples=20, derandomize=True, deadline=None, database=None, phases=LONG_WORD_PHASES
    )
    @given(long_braid_words())
    def test_long_closed_braids_at_q_plus_minus_one(self, word):
        # Resolved in word order; the expected values come from the braid
        # permutation, not from any tracer.
        value = resolve_all(closed_braid(word), cap=len(word))
        assert list(value) == [EMPTY_DISK]
        coeff = value.coefficient(EMPTY_DISK)
        assert (coeff.eval_q1(), at_minus_one(coeff)) == closure_parity(word)


def closed_value(word: list[int], surface=Disk()) -> SkeinVector:
    """The closure of word on surface, resolved in word order."""
    return resolve_all(closed_braid(word, surface), cap=len(word))


def draw_moves(data, word: list[int], strands: int):
    """A place in word, a generator i with i + 1 a generator too unless
    there are only 2 strands (so sigma_i sigma_(i+1) sigma_i fits), a
    generator j at least 2 from i when the strands allow one (else None),
    and three signs."""
    at = data.draw(st.integers(0, len(word)))
    i = data.draw(st.integers(1, max(strands - 2, 1)))
    far = [j for j in range(1, strands) if abs(i - j) >= 2]
    j = data.draw(st.sampled_from(far)) if far else None
    return at, i, j, data.draw(st.tuples(*[st.sampled_from((1, -1))] * 3))


def splice(word: list[int], at: int, *letters: int) -> list[int]:
    return word[:at] + list(letters) + word[at:]


class TestBraidMoves:
    """Moves of the braid group that keep the bracket of a closure
    (Kauffman, State models and the Jones polynomial, Topology 26, 1987),
    and Markov stabilization, which multiplies it by a kink's framing
    factor (Birman, Braids, Links, and Mapping Class Groups, 1974).  Both
    sides of every move are resolved in word order, by the frontier."""

    def test_one_letter_closure_is_the_kink(self):
        # Fixes the factor stabilization multiplies by at -q^(+-3).
        for sign in (1, -1):
            assert resolve_all(closed_braid([sign])) == resolve_all(build_kink(sign))

    @settings(
        max_examples=6, derandomize=True, deadline=None, database=None, phases=LONG_WORD_PHASES
    )
    @given(st.data())
    def test_closed_braid_moves_keep_the_value(self, data):
        word = data.draw(long_braid_words(min_strands=3, max_letters=120))
        at, i, j, (s, t, u) = draw_moves(data, word, max(map(abs, word)) + 1)
        for surface in (Disk(), Annulus()):
            value = closed_value(word, surface)
            assert closed_value(word[at:] + word[:at], surface) == value  # conjugation
            assert closed_value(splice(word, at, s * i, -s * i), surface) == value  # R II
            assert closed_value(splice(word, at, s * i, s * (i + 1), s * i), surface) == (
                closed_value(splice(word, at, s * (i + 1), s * i, s * (i + 1)), surface)
            )
            if j is not None:
                assert closed_value(splice(word, at, t * i, u * j), surface) == (
                    closed_value(splice(word, at, u * j, t * i), surface)
                )

    @settings(
        max_examples=10, derandomize=True, deadline=None, database=None, phases=LONG_WORD_PHASES
    )
    @given(long_braid_words(min_strands=3, max_letters=120), st.sampled_from((1, -1)))
    def test_markov_stabilization_multiplies_by_the_kink_factor(self, word, sign):
        # value(w sigma_s^+-1) = -q^(+-3) value(w) for s strands, and the
        # one-letter closure is -q^(+-3) delta, so nothing is divided.
        stabilized = closed_value(word + [sign * (max(map(abs, word)) + 1)])
        assert stabilized.scaled(LOOP_VALUE) == closed_value(word).scaled(
            resolve_all(closed_braid([sign])).coefficient(EMPTY_DISK)
        )

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(st.data())
    def test_open_braid_moves_hold_rel_boundary(self, data):
        (word, bottom, top, _), ideal = data.draw(open_braids())
        strands = len(bottom)
        at, i, j, (s, t, u) = draw_moves(data, word, strands)

        def value(w):
            d = open_braid(w, bottom, top)
            return resolve_all(d) if ideal is None else resolve_all_mod(d, ideal)

        assert value(splice(word, at, s * i, -s * i)) == value(word)  # R II
        if i + 1 < strands:
            assert value(splice(word, at, s * i, s * (i + 1), s * i)) == (
                value(splice(word, at, s * (i + 1), s * i, s * (i + 1)))
            )
        if j is not None:
            assert value(splice(word, at, t * i, u * j)) == value(splice(word, at, u * j, t * i))


class TestTemperleyLieb:
    """Closed braids evaluated in the Temperley-Lieb algebra by
    conftest.tl_closed_braid, which builds no diagram, against the
    frontier in word order.  On 6 strands, one more than the braid-move
    tests draw, the frontier keeps up to 6 paths open as loops close."""

    def test_one_letter_closures_are_the_kinks(self):
        for sign in (1, -1):
            assert tl_closed_braid([sign]) == resolve_all(build_kink(sign))

    @pytest.mark.parametrize("strands", [3, 4, 5, 6])
    @settings(
        max_examples=3, derandomize=True, deadline=None, database=None, phases=LONG_WORD_PHASES
    )
    @given(data=st.data())
    def test_long_closed_braids_match_the_frontier(self, strands, data):
        # The length is drawn first, so long words come up as often as short.
        n = data.draw(st.integers(40, 200))
        word = data.draw(long_braid_words(strands, n, max_strands=strands, min_letters=n))
        for surface in (Disk(), Annulus()):
            assert tl_closed_braid(word, surface) == closed_value(word, surface)

    # Fixed words on 4-6 strands.  In its widening order each closes a loop
    # around the core while six or more paths are open, a state that random
    # crossing orders reach for few seeds.
    WIDE_WORDS = [
        [-3, -2, -3, -2, -1, 3, 1, -3, -2, -2, 1, -1, -1, -2, 3, 3, -2, -3, -3, -1, 2],
        [1, 3, -2, -1, -2, -4, -1, 1, -4, -3, 4, -4, -1, -1, -3, -1, 1, -3, -1, -4, 3],
        [3, 1, 3, -1, -5, -5, -3, 1, 2, -2, 2, -2, -3, 4, -4, 1, -2, -2, -5, 5],
        [3, -1, -4, 4, 3, 3, -4, 4, 4, 5, 3, -5, 4, -2, -4, -5, 2, -4, 5, 3, -5, 2, 3],
    ]

    @settings(max_examples=20, derandomize=True, deadline=None, database=None)
    @given(long_braid_words(min_strands=3, max_strands=6, min_letters=12, max_letters=16))
    def test_random_wide_frontier_orders_match(self, word):
        # At most 16 letters: a widening order of 16-20 letters takes about
        # four times as long, and one of 29 letters passed the frontier
        # budget.  Winding-1 loops close here while many paths are open.
        for surface in (Disk(), Annulus()):
            d, _ = wide_closed_braid(word, surface)
            assert resolve_all(d, cap=len(word)) == tl_closed_braid(word, surface)

    @pytest.mark.parametrize("word", WIDE_WORDS, ids=["s4", "s5", "s6", "s6-long"])
    def test_wide_frontier_orders_match(self, word):
        for surface in (Disk(), Annulus()):
            d, widest = wide_closed_braid(word, surface)
            assert widest >= 6
            assert resolve_all(d, cap=len(word)) == tl_closed_braid(word, surface)


def fibonacci(m: int) -> int:
    a, b = 0, 1
    for _ in range(m):
        a, b = b, a + b
    return a


class TestClosedForms:
    """Counts and values known in closed form, against the frontier."""

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 40, 200, 300])
    def test_theta_over_cores_is_binomial(self, k):
        # No loop closes, and a smoothing scales by q^(+-1) as it winds the
        # arc +-1 more, so theta_(k-2j) sums the C(k, j) states with j
        # negative smoothings.
        want = {AioArc(k - 2 * j): q_power(k - 2 * j) * comb(k, j) for j in range(k + 1)}
        assert resolve_all(build_theta_over_cores(k), cap=k) == SkeinVector(want)

    @pytest.mark.parametrize(
        "rows, sizes, count",
        [
            (lambda n: 1, range(1, 11), lambda n: 2**n),
            (lambda n: 2, range(1, 8), lambda n: fibonacci(2 * n + 1)),
            (lambda n: n, range(1, 7), lambda n: comb(2 * n + 2, n + 1) // (n + 2)),
        ],
        ids=["one-row", "two-rows", "square"],
    )
    def test_grid_term_counts(self, rows, sizes, count):
        # x^k y_n with no ideal has 2^n, F(2n+1) or Catalan(n+1) basis terms.
        for n in sizes:
            k = rows(n)
            assert len(resolve_all(build_xk_yn(k, n), cap=k * n)) == count(n), (k, n)


class TestCaseResult:
    def test_passes_only_on_exact_equality(self):
        # q·z and z agree at q = 1, where an identity is never judged.
        z = AnnulusPower(1)
        lhs, rhs = SkeinVector({z: q_power(1)}), SkeinVector({z: ONE})
        case = CaseResult("q z == z", lhs, rhs)
        assert (case.passes(), case.passes(q1=True)) == (False, False)
        assert CaseResult("z == z", rhs, rhs).passes(q1=True)
        assert skeincalc.CaseResult is CaseResult
