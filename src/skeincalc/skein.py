"""Full Kauffman resolution of diagrams into exact skein vectors.

A diagram with c crossings expands into 2^c crossingless states; a state
resolved with j positive and c-j negative smoothings contributes
q^(j-(c-j)) times its normal form.  The sum is computed one crossing at
a time over a frontier of partially resolved states (the local gluing of
Bar-Natan, "Fast Khovanov homology computations", arXiv:math/0606318):
states that agree so far are merged, trivial loops are factored out as
they close, and disk states die as soon as a finished arc is a trivial
arc or an ideal generator.  A crossingless diagram is a frontier of zero
steps, so normal forms take the same path.  The diagram is validated and
compiled to port arrays once per call, by Diagram.ports(); loops are
classified only by the frontier, and _reduce_state only names the basis
element of a surviving state.  The brute-force references that tests
compare against -- the 2^c state scan, the single-crossing fold and the
torus-knot Jones polynomials -- live in tests/.  Normal forms per
surface:

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
from typing import Iterable, Iterator, Mapping

from ._cap import (  # CrossingCapExceeded is re-exported
    DEFAULT_CROSSING_CAP,
    CrossingCapExceeded,
    refuse_over_cap,
)
from ._record import Record
from .diagram import (
    Annulus,
    Diagram,
    Disk,
    MarkedAnnulus,
    Surface,
    build_theta_over_cores,
    surface_points,
)
from .laurent import LaurentPoly, ONE, q_power
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

    def chord_pairs(self) -> list[tuple[str, str]]:
        return [(a, b) for a, _, b, _ in self.chords]


BasisElement = AnnulusPower | AioArc | DiskMatching


def _basis_sort_key(elem: BasisElement):
    return (type(elem).__name__, elem.sort_key())


# -- skein vectors -------------------------------------------------------------


class SkeinVector:
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

    def __setattr__(self, name, value):
        raise AttributeError("SkeinVector is immutable")

    @classmethod
    def zero(cls) -> "SkeinVector":
        return cls()

    @classmethod
    def single(cls, elem: BasisElement, coeff: LaurentPoly = ONE) -> "SkeinVector":
        return cls({elem: coeff})

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
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(b, None)
            else:
                out[b] = s
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
        pts = surface.points
        n = len(pts)
        adjacent = {tuple(sorted((pts[i], pts[(i + 1) % n]))) for i in range(n)}
        for g in self.generators:
            if g not in adjacent:
                raise ValueError(f"ideal generator {g} is not a boundary chord of {pts}")


def grid_ideal(n: int) -> IdealSpec:
    """The ideal used with the k-by-n grid diagrams: boundary arcs
    p0p1, ..., p{n-1}p{n} (note p{n}p{n+1} is deliberately not in it)."""
    return IdealSpec.of_pairs((f"p{i}", f"p{i + 1}") for i in range(n))


def full_boundary_ideal(surface: Disk) -> IdealSpec:
    """The ideal of all boundary arcs between cyclically adjacent points."""
    pts = surface.points
    n = len(pts)
    return IdealSpec.of_pairs((pts[i], pts[(i + 1) % n]) for i in range(n))


# -- normal forms --------------------------------------------------------------


def _reduce_state(
    surface: Surface,
    points: tuple[str, ...],
    order: dict[str, int],
    arcs: list[tuple[str, int, str, int, int]],
    essential: int,
) -> BasisElement:
    """The basis element of a crossingless state: its arcs, each (point_a,
    slot_a, point_b, slot_b, winding from a to b), and its count of
    essential loops.  Trivial loops and killed states never reach it."""
    if isinstance(surface, Annulus):
        if arcs:
            raise StructureError("the annulus model has no marked points for arcs")
        return AnnulusPower(essential)
    if isinstance(surface, MarkedAnnulus):
        if len(arcs) != 1:
            raise StructureError("a marked-annulus tangle has exactly one arc")
        if essential:
            raise StructureError(
                "an essential loop next to the arc is impossible for an embedded diagram"
            )
        a, _, _, _, w = arcs[0]
        return AioArc(w if a == "p1" else -w)
    chords = [
        (a, sa, b, sb) if (order[a], sa) <= (order[b], sb) else (b, sb, a, sa)
        for a, sa, b, sb, _ in arcs
    ]
    chords.sort(key=lambda c: (order[c[0]], c[1], order[c[2]], c[3]))
    return DiskMatching(points, tuple(chords))


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


def _frontier_resolve(
    d: Diagram, ideal: IdealSpec | None
) -> dict[BasisElement, dict[int, int]]:
    """Resolve the crossings one at a time, merging equal partial states.

    A partial state is the set of open paths that pass through at least
    one resolved crossing, each (node_a, node_b, seam winding from a to b)
    with node_a < node_b, plus the number of essential loops closed so
    far; edges that touch no resolved crossing are the same in every
    state and stay implicit.  Its value is the raw {exponent:
    coefficient} weight summed over every choice of smoothings reaching
    it.  This is the one place loops are classified: the diagram's free
    loops seed the first state, and every loop closed later is counted
    the same way, a loop of winding 0 factored out as -q^2 - q^-2 and
    one of winding 1 counted as essential, while a larger winding cannot
    occur for an embedded diagram and raises StructureError.  On a disk,
    a state dies as soon as a slot-to-slot path is finished with both
    ends at one marked point, or between the endpoints of an ideal
    generator: no later smoothing touches a finished path, so pruning it
    early agrees with the 2^c state sum.  Surviving states go through
    _reduce_state, which only names their basis element.
    """
    to, w, pos, neg, slots = d.ports()
    ports = len(pos)
    slot_nodes = range(ports, len(to))
    kills: set[tuple[int, int]] = set()
    if isinstance(d.surface, Disk):
        at: dict[str, list[int]] = {}
        for v in slot_nodes:
            at.setdefault(slots[v - ports][0], []).append(v)
        gens = ideal.generators if ideal is not None else ()
        for pa, pb in [(p, p) for p in at] + list(gens) + [(b, a) for a, b in gens]:
            kills.update((a, b) for a in at.get(pa, ()) for b in at.get(pb, ()))
    if any((s, to[s]) in kills for s in slot_nodes):
        return {}
    wound = [x for x in d.loops if x > 1]
    if wound:
        raise StructureError(f"embedded loops cannot wind {wound[0]} times")
    trivial = d.loops.count(0)
    frontier: dict[tuple, dict[int, int]] = {
        ((), len(d.loops) - trivial): dict(_loop_terms(trivial))
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
                        if wx == 0:
                            trivial += 1
                        elif abs(wx) == 1:
                            ess += 1
                        else:
                            raise StructureError(f"embedded loops cannot wind {abs(wx)} times")
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
        frontier = nxt
    points = surface_points(d.surface)
    order = {p: i for i, p in enumerate(points)}
    acc: dict[BasisElement, dict[int, int]] = {}
    for (paths, essential), weight in frontier.items():
        if not weight:
            continue
        partner = {s: (to[s], w[s]) for s in slot_nodes}
        for a, b, x in paths:
            partner[a] = (b, x)
            partner[b] = (a, -x)
        arcs = [
            (*slots[s - ports], *slots[t - ports], wind)
            for s, (t, wind) in partner.items()
            if s < t
        ]
        elem = _reduce_state(d.surface, points, order, arcs, essential)
        _accumulate(acc.setdefault(elem, {}), weight, 0, 0)
    return acc


def _resolve(
    d: Diagram,
    ideal: IdealSpec | None,
    cap: int,
) -> SkeinVector:
    refuse_over_cap("diagram", d.crossing_count, cap)
    raw = _frontier_resolve(d, ideal)
    return SkeinVector({elem: LaurentPoly(terms) for elem, terms in raw.items()})


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


# -- the transport operator ------------------------------------------------------


@lru_cache(maxsize=None)
def _theta_over_cores(k: int, cap: int) -> SkeinVector:
    """The arc over k core loops, resolved once per (k, cap).

    SkeinVector is immutable, so the cached value is safe to share; a
    CrossingCapExceeded is raised again on every call, never cached.
    """
    return resolve_all(build_theta_over_cores(k), cap=cap)


def theta_bullet(p: UniPoly, *, cap: int = DEFAULT_CROSSING_CAP) -> SkeinVector:
    """The inner-to-outer arc stacked above p(z), expanded exactly.

    Linear in p: each power t^k contributes its coefficient times the full
    resolution of the arc over k core loops.
    """
    out = SkeinVector.zero()
    for k in range(p.degree + 1):
        ck = p.coefficient(k)
        if ck.is_zero():
            continue
        out = out + _theta_over_cores(k, cap).scaled(ck)
    return out


def theta_transport_target(n: int) -> SkeinVector:
    """q^n theta_n + q^-n theta_-n, the expected transport of T_n."""
    if n < 1:
        raise ValueError("the transport identity is stated for n >= 1")
    return SkeinVector({AioArc(n): q_power(n), AioArc(-n): q_power(-n)})
