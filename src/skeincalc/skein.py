"""Full Kauffman resolution of diagrams into exact skein vectors.

A diagram with c crossings expands into 2^c crossingless states; a state
resolved with j positive and c-j negative smoothings contributes
q^(j-(c-j)) times its normal form.  The sum is computed one crossing at
a time over a frontier of partially resolved states (the local gluing of
Bar-Natan, "Fast Khovanov homology computations", arXiv:math/0606318):
states that agree so far are merged, trivial loops are factored out as
they close, and disk states die as soon as a finished arc is a trivial
arc or an ideal generator.  A crossingless diagram is a frontier of zero
steps, so normal forms take the same path.  One function, _resolve,
refuses a diagram over the cap, compiles it to port arrays by
Diagram.ports(), resolves it and reads out the result; one rule,
_essential, classifies every closed loop, and _reduce_state only names
the basis element of a surviving state.  The brute-force references that
tests compare against -- the 2^c state scan, the single-crossing fold
and the torus-knot Jones polynomials -- live in tests/.  Normal forms
per surface:

* annulus: winding-0 loops each contribute the scalar -q^2 - q^-2; the
  surviving core-parallel loops give the basis element z^m;
* marked annulus: one arc of winding n gives theta_n, plus winding-0
  loop scalars; an essential loop next to the arc cannot occur for an
  embedded diagram and is rejected as a structural error;
* marked disk: loops are all trivial (scalar factors); an arc with both
  ends at the same marked point kills the state -- on a disk the inner
  side of such an arc meets the boundary only at that point, so once
  trivial loops are gone it is a trivial arc; the remaining chords with
  their height data form the basis element.

Quotients by boundary-arc ideals drop every state whose normal form
contains a chord between the generator's endpoint pair.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from ._cap import (  # the two refusals are re-exported
    DEFAULT_CROSSING_CAP,
    MAX_FRONTIER_STATES,
    CrossingCapExceeded,
    FrontierBudgetExceeded,
    refuse_over_cap,
)
from ._record import Immutable, Record
from .diagram import (
    Annulus,
    Diagram,
    Disk,
    MarkedAnnulus,
    Surface,
    build_theta_over_cores,
    build_xk_yn,
    build_zkn,
)
from .laurent import LaurentPoly, q_power

if TYPE_CHECKING:
    from .sequences import UniPoly

# Scalar of a nullisotopic loop.
LOOP_VALUE = LaurentPoly({2: -1, -2: -1})


class StructureError(Exception):
    """A diagram reached a state no embedded diagram can produce."""


# -- basis elements -----------------------------------------------------------


class AnnulusPower(Record):
    """z^m: m disjoint core-parallel loops on the annulus."""

    __slots__ = ("m",)  # int

    def sort_key(self):
        return (0, self.m)

    def label(self) -> str:
        return "1" if self.m == 0 else f"z^{self.m}"


class AioArc(Record):
    """theta_n: the inner-to-outer arc of winding n on the marked annulus."""

    __slots__ = ("n",)  # int

    def sort_key(self):
        # Descending winding, so transport identities read q^n theta_n first.
        return (0, -self.n)

    def label(self) -> str:
        return f"theta_{self.n}"


class DiskMatching(Record):
    """A crossingless multicurve of chords on a marked disk.

    chords are (point_a, slot_a, point_b, slot_b) with ends ordered by
    (cyclic point index, slot) and the tuple sorted; slot indices are the
    bottom-to-top height order at each marked point.
    """

    __slots__ = ("points", "chords")  # tuple[str, ...], tuple[chord, ...]

    def sort_key(self):
        idx = {p: i for i, p in enumerate(self.points)}
        return (1, tuple((idx[a], sa, idx[b], sb) for a, sa, b, sb in self.chords))

    def end_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for a, _, b, _ in self.chords:
            counts[a] = counts.get(a, 0) + 1
            counts[b] = counts.get(b, 0) + 1
        return counts

    def label(self) -> str:
        if not self.chords:
            return "1"
        counts = self.end_counts()

        def end(p, s):
            return f"{p}@{s}" if counts[p] > 1 else p

        inner = ",".join(f"({end(a, sa)},{end(b, sb)})" for a, sa, b, sb in self.chords)
        return f"chords[{inner}]"


BasisElement = AnnulusPower | AioArc | DiskMatching


def _basis_sort_key(elem: BasisElement):
    return (type(elem).__name__, elem.sort_key())


# -- skein vectors -------------------------------------------------------------


class SkeinVector(Immutable):
    """A finite linear combination of basis elements with Laurent coefficients.

    Zero coefficients are never stored; equality is structural.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[BasisElement, LaurentPoly] | None = None):
        clean = {}
        if terms:
            for b, c in terms.items():
                if not c.is_zero():
                    clean[b] = c
        object.__setattr__(self, "_terms", clean)

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, elem: BasisElement) -> LaurentPoly:
        return self._terms.get(elem, LaurentPoly())

    def items(self) -> list[tuple[BasisElement, LaurentPoly]]:
        """Terms in canonical basis order."""
        return sorted(self._terms.items(), key=lambda kv: _basis_sort_key(kv[0]))

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[BasisElement]:
        return iter(sorted(self._terms, key=_basis_sort_key))

    def __add__(self, other: "SkeinVector") -> "SkeinVector":
        if not isinstance(other, SkeinVector):
            return NotImplemented
        out = dict(self._terms)
        for b, c in other._terms.items():
            s = out.get(b)
            out[b] = c if s is None else s + c
        return SkeinVector(out)

    def __sub__(self, other: "SkeinVector") -> "SkeinVector":
        if not isinstance(other, SkeinVector):
            return NotImplemented
        return self + other.scaled(LaurentPoly(-1))

    def scaled(self, s: LaurentPoly | int) -> "SkeinVector":
        if isinstance(s, int):
            s = LaurentPoly(s)
        return SkeinVector({b: c * s for b, c in self._terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, SkeinVector):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __reduce__(self):
        return (SkeinVector, (self._terms,))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for b, c in self.items():
            cs = str(c)
            if " " in cs or cs.startswith("-"):
                cs = f"({cs})"
            bl = b.label()
            if bl == "1":
                parts.append(str(c) if len(self._terms) == 1 else cs)
            elif cs == "1":
                parts.append(bl)
            else:
                parts.append(f"{cs}·{bl}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"SkeinVector('{self}')"


# -- boundary-arc ideals --------------------------------------------------------


class IdealSpec(Record):
    """A set of boundary chords (unordered adjacent marked-point pairs)
    generating a two-sided ideal."""

    __slots__ = ("generators",)  # tuple[tuple[str, str], ...]

    @classmethod
    def of_pairs(cls, pairs: Iterable[tuple[str, str]]) -> "IdealSpec":
        normed = {tuple(sorted(p)) for p in pairs}
        return cls(tuple(sorted(normed)))

    def validate_on(self, surface: Surface) -> None:
        """Every generator must join neighbours in the cyclic point order."""
        if not isinstance(surface, Disk):
            raise ValueError("boundary-arc ideals are only supported on disks")
        chords = set(full_boundary_ideal(surface).generators)
        for g in self.generators:
            if g not in chords:
                raise ValueError(f"ideal generator {g} is not a boundary chord of {surface.points}")


def grid_ideal(n: int) -> IdealSpec:
    """The ideal used with the k-by-n grid diagrams on disk_surface(n),
    n >= 1: boundary arcs p0p1, ..., p{n-1}p{n} (note p{n}p{n+1} is
    deliberately not in it)."""
    if n < 1:
        raise ValueError("the grid ideal is defined for n >= 1")
    return IdealSpec.of_pairs((f"p{i}", f"p{i + 1}") for i in range(n))


def full_boundary_ideal(surface: Disk) -> IdealSpec:
    """The ideal of all boundary arcs between cyclically adjacent points."""
    pts = surface.points
    n = len(pts)
    return IdealSpec.of_pairs((pts[i], pts[(i + 1) % n]) for i in range(n))


# -- normal forms --------------------------------------------------------------


def _reduce_state(
    surface: Surface, arcs: list[tuple[str, int, str, int, int]], essential: int
) -> BasisElement:
    """The basis element of a crossingless state: its arcs, each (point_a,
    height_a, point_b, height_b, winding from a to b), and its count of
    essential loops.  Each arc lists its lower end in (surface.points
    index, height) order first, and the arcs come sorted in that order,
    as the slot numbering of Diagram.ports() gives them.  Trivial loops
    and killed states never reach it."""
    if isinstance(surface, Annulus):
        return AnnulusPower(essential)
    if isinstance(surface, MarkedAnnulus):
        if [arc[0:3:2] for arc in arcs] != [("p1", "p2")]:
            raise StructureError("a marked-annulus tangle has exactly one arc, from p1 to p2")
        if essential:
            raise StructureError(
                "an essential loop next to the arc is impossible for an embedded diagram"
            )
        return AioArc(arcs[0][4])
    return DiskMatching(surface.points, tuple(arc[:4] for arc in arcs))


def normal_form(d: Diagram) -> SkeinVector:
    """Reduce a crossingless diagram to (basis element, scalar) or zero."""
    if d.crossings:
        raise ValueError("normal_form requires a crossingless diagram")
    return _resolve(d, None, DEFAULT_CROSSING_CAP)


# -- the state-sum engine ---------------------------------------------------------


@lru_cache(maxsize=None)
def _loop_terms(t: int) -> tuple[tuple[int, int], ...]:
    """The terms of (-q^2 - q^-2)^t."""
    return (LOOP_VALUE**t).items()


def _accumulate(
    bucket: dict[int, int], weight: dict[int, int], shift: int, trivial: int
) -> None:
    """bucket += q^shift * (-q^2 - q^-2)^trivial * weight, on raw term dicts."""
    for e, coeff in weight.items():
        for de, dc in _loop_terms(trivial):
            k = e + shift + de
            s = bucket.get(k, 0) + coeff * dc
            if s:
                bucket[k] = s
            else:
                del bucket[k]


def _essential(winding: int) -> int:
    """1 for a closed loop of winding +-1, which is essential, and 0 for
    a winding-0 loop, which is trivial; a larger winding cannot occur for
    an embedded diagram and raises StructureError."""
    if abs(winding) > 1:
        raise StructureError(f"embedded loops cannot wind {abs(winding)} times")
    return abs(winding)


def _resolve(d: Diagram, ideal: IdealSpec | None, cap: int) -> SkeinVector:
    """Refuse d over the cap, then resolve its crossings one at a time,
    merging equal partial states.

    A partial state is the set of open paths that pass through at least
    one resolved crossing, each (node_a, node_b, seam winding from a to b)
    with node_a < node_b, plus the number of essential loops closed so
    far.  Its value is the raw {exponent: coefficient} weight summed over
    every choice of smoothings reaching it.  Slot-to-slot edges touch no
    crossing, so they are listed once, as fixed, and read by the kill
    check and by the read-out.  Every closed loop goes through _essential:
    the diagram's free loops seed the first state and each loop a
    smoothing closes is counted the same way, a trivial one factored out
    as -q^2 - q^-2.  On a disk, a state dies as soon as a slot-to-slot
    path is finished with both ends at one marked point, or between the
    endpoints of an ideal generator: no later smoothing touches a finished
    path, so pruning it early agrees with the 2^c state sum.  Surviving
    states go through _reduce_state, which only names their basis
    element.  A frontier raises FrontierBudgetExceeded as soon as it holds
    state number MAX_FRONTIER_STATES + 1.
    """
    refuse_over_cap("diagram", d.crossing_count, cap)
    to, w, pos, neg, slots = d.ports()
    ports = len(pos)
    fixed = [(s, t, w[s]) for s, t in enumerate(to) if ports <= s < t]
    kills: set[tuple[int, int]] = set()
    if isinstance(d.surface, Disk):
        at: dict[str, list[int]] = {}
        for v, (p, _) in enumerate(slots, ports):
            at.setdefault(p, []).append(v)
        gens = ideal.generators if ideal is not None else ()
        for pa, pb in [(p, p) for p in at] + list(gens) + [(b, a) for a, b in gens]:
            kills.update((a, b) for a in at.get(pa, ()) for b in at.get(pb, ()))
    if any((s, t) in kills for s, t, _ in fixed):
        return SkeinVector()
    essential = sum(map(_essential, d.loops))
    frontier: dict[tuple, dict[int, int]] = {
        ((), essential): dict(_loop_terms(len(d.loops) - essential))
    }
    for ci in range(ports // 4):
        smoothings = [
            (shift, [(p, partner[p]) for p in range(4 * ci, 4 * ci + 4) if p < partner[p]])
            for shift, partner in ((1, pos), (-1, neg))
        ]
        nxt: dict[tuple, dict[int, int]] = {}
        for (paths, essential), weight in frontier.items():
            if not weight:
                continue
            base: dict[int, tuple[int, int]] = {}
            for a, b, x in paths:
                base[a] = (b, x)
                base[b] = (a, -x)
            for shift, pairs in smoothings:
                ends = dict(base)
                trivial, ess = 0, essential
                for p, r in pairs:
                    # Join the path p -> x to the path r -> y through the crossing.
                    x, wx = ends.pop(p) if p in ends else (to[p], w[p])
                    if x == r:
                        ends.pop(r, None)
                        closed = _essential(wx)
                        ess += closed
                        trivial += 1 - closed
                        continue
                    ends.pop(x, None)
                    y, wy = ends.pop(r) if r in ends else (to[r], w[r])
                    ends.pop(y, None)
                    if (x, y) in kills:
                        break
                    ends[x] = (y, wy - wx)
                    ends[y] = (x, wx - wy)
                else:
                    key = (tuple(sorted((a, b, x) for a, (b, x) in ends.items() if a < b)), ess)
                    _accumulate(nxt.setdefault(key, {}), weight, shift, trivial)
                    if len(nxt) > MAX_FRONTIER_STATES:
                        raise FrontierBudgetExceeded(
                            f"diagram holds more than {MAX_FRONTIER_STATES} partial states "
                            f"at crossing {ci + 1} of {ports // 4}; "
                            f"the frontier budget is {MAX_FRONTIER_STATES}"
                        )
        frontier = nxt
    acc: dict[BasisElement, dict[int, int]] = {}
    for (paths, essential), weight in frontier.items():
        if weight:
            # Slot nodes run in (marked point, height) order, so each arc
            # starts at its lower end and the arcs come sorted, as
            # _reduce_state takes them.
            arcs = [
                (*slots[a - ports], *slots[b - ports], x) for a, b, x in sorted(fixed + list(paths))
            ]
            elem = _reduce_state(d.surface, arcs, essential)
            _accumulate(acc.setdefault(elem, {}), weight, 0, 0)
    return SkeinVector({elem: LaurentPoly._adopt(terms) for elem, terms in acc.items()})


def resolve_all(d: Diagram, *, cap: int = DEFAULT_CROSSING_CAP) -> SkeinVector:
    """Sum q^(#pos - #neg) * normal_form(state) over all 2^c resolutions."""
    return _resolve(d, None, cap)


def resolve_all_mod(
    d: Diagram, ideal: IdealSpec, *, cap: int = DEFAULT_CROSSING_CAP
) -> SkeinVector:
    """As resolve_all, but states whose normal form contains an ideal
    generator chord are discarded."""
    ideal.validate_on(d.surface)
    return _resolve(d, ideal, cap)


class CaseResult(Record):
    """One checked case of an identity, the package's one such record: it
    passes only when both sides are equal over Z[q, q^-1], so q1 is ignored."""

    __slots__ = ("label", "lhs", "rhs")  # str, SkeinVector, SkeinVector

    def passes(self, q1: bool = False) -> bool:
        return self.lhs == self.rhs


def grid_identity(k: int, n: int, cap: int) -> tuple[SkeinVector, SkeinVector]:
    """Both sides of x^k y_n = q^(-kn) z_(k,n) modulo the grid ideal: the
    quotient of the k-by-n grid, and the weighted all-negative state.
    A grid over the cap is refused before either side is built."""
    refuse_over_cap(f"xkyn:{k},{n}", k * n, cap)
    lhs = resolve_all_mod(build_xk_yn(k, n), grid_ideal(n), cap=cap)
    rhs = normal_form(build_zkn(k, n)).scaled(q_power(-k * n))
    return lhs, rhs


# -- the transport operator ------------------------------------------------------


@lru_cache(maxsize=None)
def _theta_over_cores(k: int) -> SkeinVector:
    """The arc over k core loops (k crossings), resolved once per k;
    SkeinVector is immutable, so the cached value is safe to share."""
    return resolve_all(build_theta_over_cores(k), cap=k)


def theta_bullet(p: UniPoly, *, cap: int = DEFAULT_CROSSING_CAP) -> SkeinVector:
    """The inner-to-outer arc stacked above p(z), expanded exactly.

    Linear in p: each power t^k contributes its coefficient times the full
    resolution of the arc over k core loops.  The largest arc, over
    deg p cores, is refused against the cap before any arc is built.
    """
    refuse_over_cap(f"theta:{p.degree}", p.degree, cap)
    return sum(
        (_theta_over_cores(k).scaled(ck) for k, ck in enumerate(p.coeffs) if ck),
        SkeinVector(),
    )


def theta_transport_target(n: int) -> SkeinVector:
    """q^n theta_n + q^-n theta_-n, the expected transport of T_n."""
    if n < 1:
        raise ValueError("the transport identity is stated for n >= 1")
    return SkeinVector({AioArc(n): q_power(n), AioArc(-n): q_power(-n)})
