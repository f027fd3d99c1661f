"""Shared test helpers: the brute-force oracles the frontier resolver is
checked against (a 2^c state scan, a single-crossing fold, closed braids
with known Jones polynomials, in word order or in a frontier-widening
order, open braids across a marked disk, and both kinds of braid
evaluated in the Temperley-Lieb algebra), the
edge-map crossing resolution the fold and enumerate_states run on (the
package traces components only in its frontier resolver), a JSON
description of diagrams, the dict-buffer reference for the packed
sequence kernel, and random Laurent polynomial generation."""

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
from skeincalc.diagram import Attachment, Edge, _diagram, make_edge, smoothing_pairs
from skeincalc.laurent import ONE, ZERO, q_power
from skeincalc.sequences import UniPoly
from skeincalc.skein import AnnulusPower, DiskMatching, _reduce_state


def resolve_crossings(d: Diagram, signs: dict[str, int]) -> Diagram:
    """Remove the crossings named in signs, in the order signs lists
    them, reconnecting the ports of each per the smoothing rule of its
    sign.

    Seam counts of merged edges add up (with orientation); an edge whose
    two ends get joined to each other closes into a free loop.  The edge
    map is built once, so the cost is linear in the diagram's size.
    """
    over = {cr.id: cr.over for cr in d.crossings}
    by_end: dict[Attachment, Edge] = {}
    for e in d.edges:
        by_end[e.a] = e
        by_end[e.b] = e
    loops = list(d.loops)
    for cid in signs:
        if signs[cid] not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if cid not in over:
            raise ValueError(f"unknown crossing id {cid!r}")
        for i, j in smoothing_pairs(over[cid], signs[cid]):
            ai: Attachment = ("X", cid, i)
            aj: Attachment = ("X", cid, j)
            ei = by_end.pop(ai)
            ej = by_end.pop(aj)
            if ei is ej:
                # The edge ran from port i to port j; the smoothing closes it.
                loops.append(abs(ei.seam))
                continue
            if ei.a == ai:
                far_i, w_i = ei.b, -ei.seam
            else:
                far_i, w_i = ei.a, ei.seam
            if ej.a == aj:
                far_j, w_j = ej.b, ej.seam
            else:
                far_j, w_j = ej.a, -ej.seam
            merged = make_edge(far_i, far_j, w_i + w_j)
            by_end[far_i] = merged
            by_end[far_j] = merged
    return _diagram(
        d.surface,
        [c for c in d.crossings if c.id not in signs],
        set(by_end.values()),
        loops=loops,
    )


def resolve_crossing(d: Diagram, cid: str, sign: int) -> Diagram:
    """Remove one crossing; see resolve_crossings."""
    return resolve_crossings(d, {cid: sign})


def diagram_json(d: Diagram) -> dict:
    """A full JSON description of d: crossings, edges with seam counts,
    loops and the number of edge ends at each marked point, for debugging."""
    at = [x[1] for e in d.edges for x in (e.a, e.b) if x[0] == "B"]
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
        "endpoints": {p: at.count(p) for p in d.surface.points if p in at},
    }


def scan_components(ports, mask: int):
    """Arcs and loop windings of the state where bit ci = 1 means the
    ci-th crossing is resolved positively, traced edge by edge through
    the arrays of Diagram.ports().  Each arc starts from its lower slot
    node and the arcs come in slot node order, as _reduce_state takes
    them."""
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
    gens = set() if ideal is None else set(ideal.generators)
    acc: dict = {}
    for mask in range(1 << c):
        arcs, loops = scan_components(ports, mask)
        loops += d.loops
        if any(x > 1 for x in loops):
            raise StructureError(f"embedded loops cannot wind {max(loops)} times")
        if isinstance(d.surface, Disk) and any(a == b for a, _, b, _, _ in arcs):
            continue
        elem = _reduce_state(d.surface, arcs, loops.count(1))
        if isinstance(elem, DiskMatching) and any(
            tuple(sorted((a, b))) in gens for a, _, b, _ in elem.chords
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


def closed_braid(word: list[int], surface=Disk(), order: list[int] | None = None) -> Diagram:
    """The closure of a braid word on the unmarked disk or the annulus.

    Letter i > 0 is sigma_i, the over-strand going from position i at the
    bottom to position i+1 at the top; -i is its inverse.  Ports are
    0 = SW, 1 = NW, 2 = NE, 3 = SE, strands run upward, and each closure
    edge joins a position's last port to its first one, so every position
    must carry a crossing.  On the annulus the closure edges go around the
    core, crossing the seam once each with count +1.  Letter j is the
    crossing named bj, and the crossing tuple lists the letters in word
    order, or as order permutes them: order[i] is the letter the resolver
    takes i-th.
    """
    seam = 1 if isinstance(surface, Annulus) else 0
    first: dict[int, tuple] = {}
    last: dict[int, tuple] = {}
    crossings, edges = [], []
    for j, letter in enumerate(word):
        i, cid = abs(letter), f"b{j}"
        crossings.append(Crossing(cid, (0, 2) if letter > 0 else (1, 3)))
        for pos, bottom, top in ((i, 0, 1), (i + 1, 3, 2)):
            if pos in last:
                edges.append(make_edge(last[pos], ("X", cid, bottom)))
            else:
                first[pos] = ("X", cid, bottom)
            last[pos] = ("X", cid, top)
    edges += [make_edge(last[pos], first[pos], seam) for pos in first]
    return Diagram(surface, permuted(crossings, order), frozenset(edges))


def wide_closed_braid(word: list[int], surface=Disk()) -> tuple[Diagram, int]:
    """closed_braid(word, surface) in a crossing order that widens the
    frontier, and the most paths open at once in that order.

    The crossing taken next opens the most new path ends: it has the most
    edges to crossings not taken yet, ties going to the lower letter
    index.  Each edge between a taken and an untaken crossing is one end
    of an open path, so half their count is the paths open after a step.
    Read off the diagram's edges, not through Diagram.ports().
    """
    d = closed_braid(word, surface)
    index = {c.id: j for j, c in enumerate(d.crossings)}
    joined: list[list[int]] = [[] for _ in word]
    for e in d.edges:
        a, b = index[e.a[1]], index[e.b[1]]
        joined[a].append(b)
        joined[b].append(a)
    left = set(range(len(word)))

    def opened(j: int) -> int:
        return sum(k in left and k != j for k in joined[j])

    order, cut, widest = [], 0, 0
    while left:
        j = max(sorted(left), key=opened)
        cut += opened(j) - sum(k not in left for k in joined[j])
        left.remove(j)
        order.append(j)
        widest = max(widest, cut // 2)
    return closed_braid(word, surface, order), widest


def permuted(crossings: list[Crossing], order: list[int] | None) -> tuple[Crossing, ...]:
    """The crossing tuple in word order, or its order[i]-th entry i-th."""
    return tuple(crossings) if order is None else tuple(crossings[j] for j in order)


def open_braid(
    word: list[int], bottom: list[str], top: list[str], order: list[int] | None = None
) -> Diagram:
    """A braid word whose strands run across a marked disk, bottom to top.

    Position i starts at marked point bottom[i - 1] and ends at top[i - 1];
    positions sharing a point take its height slots left to right, and a
    position that no letter touches is one edge from bottom to top.  The
    points, clockwise, are the top ones left to right, then the bottom
    ones right to left.  Letters, ports, crossing names and order are as
    in closed_braid.
    """
    points = [*dict.fromkeys(top), *reversed(dict.fromkeys(bottom))]
    heights: dict[str, int] = {}

    def end(p: str) -> tuple:
        heights[p] = heights.get(p, 0) + 1
        return ("B", p, heights[p] - 1)

    last = {pos: end(p) for pos, p in enumerate(bottom, 1)}
    crossings, edges = [], []
    for j, letter in enumerate(word):
        i, cid = abs(letter), f"b{j}"
        crossings.append(Crossing(cid, (0, 2) if letter > 0 else (1, 3)))
        for pos, down, up in ((i, 0, 1), (i + 1, 3, 2)):
            edges.append(make_edge(last[pos], ("X", cid, down)))
            last[pos] = ("X", cid, up)
    edges += [make_edge(last[pos], end(p)) for pos, p in enumerate(top, 1)]
    return Diagram(Disk(tuple(points)), permuted(crossings, order), frozenset(edges))


def closure_components(word: list[int]) -> int:
    """The number of components of a braid word's closure: the cycles of
    the permutation its letters make of the strand positions.  Read off
    the word alone, so it shares nothing with any diagram tracer."""
    at = list(range(max(map(abs, word)) + 2))
    for letter in word:
        i = abs(letter)
        at[i], at[i + 1] = at[i + 1], at[i]
    seen, cycles = set(), 0
    for start in at[1:]:
        if start not in seen:
            cycles += 1
            while start not in seen:
                seen.add(start)
                start = at[start]
    return cycles


def closure_parity(word: list[int]) -> tuple[int, int]:
    """The value of the disk closure of word at q = 1 and at q = -1:
    (-1)^c (-2)^k and (-2)^k for c letters and k components.  At q = +-1
    a crossing equals its mirror, so crossing changes turn the diagram
    into an unlink of k loops; Reidemeister moves II and III keep the
    value and remove crossings in pairs, and move I removes one at the
    factor -q^(+-3), which is -1 at q = 1 and 1 at q = -1."""
    k = closure_components(word)
    return (-1) ** len(word) * (-2) ** k, (-2) ** k


def at_minus_one(p: LaurentPoly) -> int:
    """p evaluated at q = -1; LaurentPoly.eval_q1 gives q = 1."""
    return sum(c * (-1) ** e for e, c in p.items())


def tl_braid(word: list[int], s: int) -> dict[tuple[int, ...], LaurentPoly]:
    """word on s strands in the Temperley-Lieb algebra TL_s (Jones, Hecke
    algebra representations of braid groups and link polynomials, Ann.
    Math. 126, 1987), as {matching: coefficient}: no diagram and no
    crossing is built, so nothing is shared with the frontier resolver.

    A basis element of TL_s is a planar perfect matching of 2s points:
    bottom positions 1..s are points 0..s-1 and top positions s..2s-1.
    Letters act from the top in word order, sigma_i as q + q^-1 e_i and
    its inverse as q^-1 + q e_i, signs that the one-letter closures
    (the kinks) fix; a loop that e_i closes is worth delta = -q^2 - q^-2.
    """
    state = {tuple(range(s, 2 * s)) + tuple(range(s)): ONE}
    for letter in word:
        one, e = (1, -1) if letter > 0 else (-1, 1)
        a, b = s + abs(letter) - 1, s + abs(letter)
        nxt: dict[tuple[int, ...], LaurentPoly] = {}
        for m, c in state.items():
            nxt[m] = nxt.get(m, ZERO) + c.shifted(one)
            x, y = m[a], m[b]
            if x == b:  # m joins top i to top i+1, so e_i closes a loop
                nxt[m] = nxt.get(m, ZERO) - c.shifted(e + 2) - c.shifted(e - 2)
            else:
                joined = list(m)
                joined[x], joined[y], joined[a], joined[b] = y, x, b, a
                key = tuple(joined)
                nxt[key] = nxt.get(key, ZERO) + c.shifted(e)
        state = {m: c for m, c in nxt.items() if c}
    return state


def tl_closed_braid(word: list[int], surface=Disk()) -> SkeinVector:
    """The closure of word on the unmarked disk or the annulus, as
    closed_braid draws it, evaluated by tl_braid.  Closing joins top
    position j to bottom position j.  On the disk every loop is worth
    delta = -q^2 - q^-2; on the annulus each closure edge goes once
    around the core, so a loop of winding 0 is worth delta and one of
    winding +-1 is a factor of z.
    """
    s = max(map(abs, word)) + 1
    delta = LaurentPoly({2: -1, -2: -1})
    out: dict = {}
    for m, c in tl_braid(word, s).items():
        seen, trivial, essential = set(), 0, 0
        for start in range(2 * s):
            if start in seen:
                continue
            p, winding = start, 0
            while True:
                r = m[p]
                seen.update((p, r))
                # The closure edge from top position j goes down to bottom j.
                p, winding = (r - s, winding + 1) if r >= s else (r + s, winding - 1)
                if p == start:
                    break
            if winding == 0 or isinstance(surface, Disk):
                trivial += 1
            elif abs(winding) == 1:
                essential += 1
            else:
                raise StructureError(f"a closed TL loop winds {winding} times")
        elem = DiskMatching((), ()) if isinstance(surface, Disk) else AnnulusPower(essential)
        out[elem] = out.get(elem, ZERO) + c * delta**trivial
    return SkeinVector(out)


def tl_open_braid(
    word: list[int], bottom: list[str], top: list[str], ideal: IdealSpec | None = None
) -> SkeinVector:
    """word run across a marked disk as open_braid draws it, evaluated by
    tl_braid with no closure, modulo ideal when one is given.

    With s = len(bottom) strands, end u of the matching sits at
    bottom[u] for u < s and at top[u - s] otherwise.  The heights at a
    point count its ends left to right, bottom ends first, as open_braid
    numbers them, and the points run in open_braid's order: the top ones
    left to right, then the bottom ones right to left.  A term dies when a chord has both ends at one point
    or joins the two points of an ideal generator; the rest are
    DiskMatchings, each chord listing its lower (point index, height)
    end first and the chords sorted in that order.
    """
    points = (*dict.fromkeys(top), *reversed(dict.fromkeys(bottom)))
    index = {p: i for i, p in enumerate(points)}
    at = [*bottom, *top]
    place = [(index[p], at[:u].count(p)) for u, p in enumerate(at)]
    gens = set() if ideal is None else set(ideal.generators)
    out: dict = {}
    for m, c in tl_braid(word, len(bottom)).items():
        ends = sorted((place[u], place[v]) for u, v in enumerate(m) if place[u] < place[v])
        chords = tuple((points[a], ha, points[b], hb) for (a, ha), (b, hb) in ends)
        if any(a == b or tuple(sorted((a, b))) in gens for a, _, b, _ in chords):
            continue
        elem = DiskMatching(points, chords)
        out[elem] = out.get(elem, ZERO) + c
    return SkeinVector(out)


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
    for e1, v1 in c.items():
        for slot, r in zip(acc[shift:], row):
            for e2, v2 in r.items():
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
    return ref_reduce([dict(c.items()) for c in p.coeffs], seq)


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
