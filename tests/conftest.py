"""Shared test helpers: the brute-force oracles the frontier resolver is
checked against (a 2^c state scan, a single-crossing fold, closed braids
with known Jones polynomials, open braids across a marked disk),
single-crossing resolution and a JSON description of diagrams, the
dict-buffer reference for the packed sequence kernel, and random Laurent
polynomial generation."""

from __future__ import annotations

import itertools
import random

import pytest

from skeincalc import (
    Annulus,
    Crossing,
    Diagram,
    Disk,
    IdealSpec,
    LaurentPoly,
    LOOP_VALUE,
    SkeinVector,
    StructureError,
)
from skeincalc.diagram import make_edge, resolve_crossings, surface_points
from skeincalc.laurent import ZERO, q_power
from skeincalc.sequences import UniPoly
from skeincalc.skein import DiskMatching, _reduce_state


def resolve_crossing(d: Diagram, cid: str, sign: int) -> Diagram:
    """Remove one crossing; see diagram.resolve_crossings."""
    return resolve_crossings(d, {cid: sign})


def diagram_json(d: Diagram) -> dict:
    """A full JSON description of d: crossings, edges with seam counts,
    loops and endpoint orders, for debugging."""
    if isinstance(d.surface, Disk):
        surf = {"kind": "disk", "points": list(d.surface.points)}
    elif isinstance(d.surface, Annulus):
        surf = {"kind": "annulus"}
    else:
        surf = {"kind": "marked_annulus"}
    return {
        "surface": surf,
        "crossings": [{"id": c.id, "over": list(c.over)} for c in d.crossings],
        "edges": [
            {"a": list(e.a), "b": list(e.b), "seam": e.seam}
            for e in sorted(d.edges, key=lambda e: (e.a, e.b))
        ],
        "loops": list(d.loops),
        "endpoints": {p: n for p, n in d.slots},
    }


def scan_components(ports, mask: int):
    """Arcs and loop windings of the state where bit ci = 1 means the
    ci-th crossing is resolved positively, traced edge by edge through
    the arrays of Diagram.ports()."""
    to, w, pos, neg, slots = ports
    c4 = len(pos)
    seen = bytearray(len(to))
    arcs = []
    for s in range(c4, len(to)):
        if seen[s]:
            continue
        seen[s] = 1
        wind = w[s]
        v = to[s]
        while v < c4:
            seen[v] = 1
            u = pos[v] if (mask >> (v >> 2)) & 1 else neg[v]
            seen[u] = 1
            wind += w[u]
            v = to[u]
        seen[v] = 1
        arcs.append((*slots[s - c4], *slots[v - c4], wind))
    loops = []
    for v0 in range(c4):
        if seen[v0]:
            continue
        wind = 0
        v = v0
        while not seen[v]:
            seen[v] = 1
            u = pos[v] if (mask >> (v >> 2)) & 1 else neg[v]
            seen[u] = 1
            wind += w[u]
            v = to[u]
        loops.append(abs(wind))
    return arcs, loops


def scan_resolve(d: Diagram, ideal: IdealSpec | None = None) -> SkeinVector:
    """The 2^c state sum, each state traced, classified and reduced on its
    own: winding-0 loops are scalars, winding-1 loops essential, and a
    disk state with an arc back to its own marked point or an ideal chord
    is zero."""
    ports = d.ports()
    c = d.crossing_count
    points = surface_points(d.surface)
    order = {p: i for i, p in enumerate(points)}
    gens = set() if ideal is None else set(ideal.generators)
    acc: dict = {}
    for mask in range(1 << c):
        arcs, loops = scan_components(ports, mask)
        loops += d.loops
        if any(x > 1 for x in loops):
            raise StructureError(f"embedded loops cannot wind {max(loops)} times")
        if isinstance(d.surface, Disk) and any(a == b for a, _, b, _, _ in arcs):
            continue
        elem = _reduce_state(d.surface, points, order, arcs, loops.count(1))
        if isinstance(elem, DiskMatching) and any(
            tuple(sorted(pair)) in gens for pair in elem.chord_pairs()
        ):
            continue
        weight = q_power(2 * bin(mask).count("1") - c) * LOOP_VALUE ** loops.count(0)
        acc[elem] = acc.get(elem, LaurentPoly()) + weight
    return SkeinVector(acc)


def fold_resolve(d: Diagram) -> SkeinVector:
    """Expand by repeated single-crossing resolution, the slow way.

    Independent of the frontier: recurses through resolve_crossing and
    sums q^{+-1}-weighted scans of the crossingless leaves.
    """
    if d.crossing_count == 0:
        return scan_resolve(d)
    cid = d.crossings[0].id
    pos = fold_resolve(resolve_crossing(d, cid, +1)).scaled(q_power(1))
    neg = fold_resolve(resolve_crossing(d, cid, -1)).scaled(q_power(-1))
    return pos + neg


def closed_braid(word: list[int], surface=Disk(), ids: list[int] | None = None) -> Diagram:
    """The closure of a braid word on the unmarked disk or the annulus.

    Letter i > 0 is sigma_i, the over-strand going from position i at the
    bottom to position i+1 at the top; -i is its inverse.  Ports are
    0 = SW, 1 = NW, 2 = NE, 3 = SE, strands run upward, and each closure
    edge joins a position's last port to its first one, so every position
    must carry a crossing.  On the annulus the closure edges go around the
    core, crossing the seam once each with count +1.  Letter j gets the
    crossing id b{ids[j]:04d}, so a permutation ids shuffles the order the
    resolver takes the crossings in; by default ids sort in word order.
    """
    ids = range(len(word)) if ids is None else ids
    seam = 1 if isinstance(surface, Annulus) else 0
    first: dict[int, tuple] = {}
    last: dict[int, tuple] = {}
    crossings, edges = [], []
    for letter, j in zip(word, ids):
        i, cid = abs(letter), f"b{j:04d}"
        crossings.append(Crossing(cid, (0, 2) if letter > 0 else (1, 3)))
        for pos, bottom, top in ((i, 0, 1), (i + 1, 3, 2)):
            if pos in last:
                edges.append(make_edge(last[pos], ("X", cid, bottom)))
            else:
                first[pos] = ("X", cid, bottom)
            last[pos] = ("X", cid, top)
    edges += [make_edge(last[pos], first[pos], seam) for pos in first]
    return Diagram(surface, tuple(sorted(crossings, key=lambda cr: cr.id)), frozenset(edges))


def open_braid(
    word: list[int], bottom: list[str], top: list[str], ids: list[int] | None = None
) -> Diagram:
    """A braid word whose strands run across a marked disk, bottom to top.

    Position i starts at marked point bottom[i - 1] and ends at top[i - 1];
    positions sharing a point take its height slots left to right, and a
    position that no letter touches is one edge from bottom to top.  The
    points, clockwise, are the top ones left to right, then the bottom
    ones right to left.  Letters, ports and crossing ids are as in
    closed_braid.
    """
    points = [*dict.fromkeys(top), *reversed(dict.fromkeys(bottom))]
    heights: dict[str, int] = {}

    def end(p: str) -> tuple:
        heights[p] = heights.get(p, 0) + 1
        return ("B", p, heights[p] - 1)

    last = {pos: end(p) for pos, p in enumerate(bottom, 1)}
    ids = range(len(word)) if ids is None else ids
    crossings, edges = [], []
    for letter, j in zip(word, ids):
        i, cid = abs(letter), f"b{j:04d}"
        crossings.append(Crossing(cid, (0, 2) if letter > 0 else (1, 3)))
        for pos, down, up in ((i, 0, 1), (i + 1, 3, 2)):
            edges.append(make_edge(last[pos], ("X", cid, down)))
            last[pos] = ("X", cid, up)
    edges += [make_edge(last[pos], end(p)) for pos, p in enumerate(top, 1)]
    return Diagram(
        Disk(tuple(points)),
        tuple(sorted(crossings, key=lambda cr: cr.id)),
        frozenset(edges),
        slots=tuple(heights.items()),
    )


def enumerate_states(d: Diagram):
    """Yield (signs, crossingless diagram) over all full resolutions."""
    cids = [c.id for c in d.crossings]
    for signs in itertools.product((1, -1), repeat=len(cids)):
        state = d
        for cid, s in zip(cids, signs):
            state = resolve_crossing(state, cid, s)
        yield signs, state


def collect_loop_windings(d: Diagram) -> set[int]:
    """All closed-component windings over every resolution of d."""
    out: set[int] = set()
    for _, state in enumerate_states(d):
        out.update(state.loops)
    return out


# -- the dict-buffer reference for UniPoly arithmetic and basis conversion ------
#
# A working buffer holds one mutable {exponent: int} dict per power of t;
# every coefficient product is one dict update, so nothing is packed and
# no digit width or exponent frame can be too small.


def ref_addmul(acc: list[dict[int, int]], shift: int, c: LaurentPoly, row, sign: int) -> None:
    """acc[shift + i] += sign * c * row[i] for every i, in place; acc is
    extended when row reaches past its end."""
    short = shift + len(row) - len(acc)
    if short > 0:
        acc.extend({} for _ in range(short))
    for e1, v1 in c.terms().items():
        for slot, r in zip(acc[shift:], row):
            for e2, v2 in r.terms().items():
                slot[e1 + e2] = slot.get(e1 + e2, 0) + sign * v1 * v2


def ref_wrap(terms: dict[int, int]) -> LaurentPoly:
    return LaurentPoly({e: v for e, v in terms.items() if v})


def ref_linear(terms) -> UniPoly:
    """sum(sign * c * row) over (c, row, sign)."""
    acc: list[dict[int, int]] = []
    for c, row, sign in terms:
        ref_addmul(acc, 0, c, row, sign)
    return UniPoly([ref_wrap(t) for t in acc])


def ref_product(a, b) -> list[dict[int, int]]:
    """The buffer of a * b: one ref_addmul per nonzero coefficient of a."""
    acc: list[dict[int, int]] = []
    for i, c in enumerate(a):
        if not c.is_zero():
            ref_addmul(acc, i, c, b, 1)
    return acc


def ref_reduce(acc: list[dict[int, int]], seq) -> list[LaurentPoly]:
    """Division with remainder from the top degree down: where slot j is
    nonzero it is c_j, and c_j * seq[j] is subtracted whole."""
    out = [ZERO] * len(acc)
    for j in range(len(acc) - 1, -1, -1):
        if any(acc[j].values()):
            cj = out[j] = ref_wrap(acc[j])
            ref_addmul(acc, 0, cj, seq[j].coeffs, -1)
    if any(any(terms.values()) for terms in acc):
        raise AssertionError("basis conversion left a nonzero residual")
    return out


def ref_mul(a: UniPoly, b: UniPoly) -> UniPoly:
    return UniPoly([ref_wrap(t) for t in ref_product(a.coeffs, b.coeffs)])


def ref_to_basis(p: UniPoly, seq) -> list[LaurentPoly]:
    return ref_reduce([c.terms() for c in p.coeffs], seq)


def ref_from_basis(coeffs, seq) -> UniPoly:
    return ref_linear((c, seq[k].coeffs, 1) for k, c in enumerate(coeffs) if not c.is_zero())


def ref_product_in_basis(seq, m: int, n: int) -> list[LaurentPoly]:
    return ref_reduce(ref_product(seq[m].coeffs, seq[n].coeffs), seq)


def random_laurent(rng: random.Random, span: int = 6, size: int = 4) -> LaurentPoly:
    terms = {}
    for _ in range(rng.randint(0, size)):
        terms[rng.randint(-span, span)] = rng.randint(-9, 9)
    return LaurentPoly(terms)


def random_positive(rng: random.Random, span: int = 6, size: int = 4) -> LaurentPoly:
    terms = {}
    for _ in range(rng.randint(0, size)):
        terms[rng.randint(-span, span)] = rng.randint(0, 9)
    return LaurentPoly(terms)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260810)
