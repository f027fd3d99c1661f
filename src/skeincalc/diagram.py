"""Combinatorial framed tangle diagrams on disks and annuli.

A diagram is a 4-valent map: crossings with four ports, edges joining
ports and/or boundary endpoints, plus crossing-free closed loops tracked
separately.  Annulus-type surfaces carry one seam (a radial reference
cut); each edge records the signed number of seam crossings along it, and
windings of components are read off by summing seam counts.

Conventions, fixed once and used by every builder:

* The four ports of a crossing are numbered 0..3 in clockwise planar
  order; the over-strand occupies one diagonal, (0,2) or (1,3).
* The positive resolution of a crossing joins each over-strand port to
  the next port clockwise; the negative resolution to the previous one.
* The seam is oriented so that the core loops made by build_core_stack
  carry seam count +1, and arcs are read from the inner marked point to
  the outer one.  With the port rule above this makes the positive
  smoothing of an arc crossing over a core loop come out as the arc of
  winding +1.
* The ends at one marked point are stacked: an end ("B", point, h) is
  the h-th from the bottom, and the heights at a point with m ends are
  0..m-1.  The edges are the only record of them; Diagram.ports()
  counts each point's ends and numbers its slots from there.

Diagrams are immutable values.  This module builds and validates them
but traces no component: build_zkn writes its crossingless staircase
down directly, and the frontier resolver in skein.py is the package's
one component tracer.
"""

from __future__ import annotations

from ._record import Record

# An attachment point is ("X", crossing_id, port) or ("B", point, height).
Attachment = tuple


class Disk(Record):
    """A disk with marked boundary points listed in clockwise cyclic order."""

    __slots__ = ("points",)  # tuple[str, ...]
    _defaults = {"points": ()}


class Annulus(Record):
    """An annulus with no marked points and one seam."""

    __slots__ = ()
    points = ()


class MarkedAnnulus(Record):
    """An annulus with p1 on the inner boundary, p2 on the outer, one seam.

    The seam runs through neither marked point.
    """

    __slots__ = ()
    points = ("p1", "p2")


Surface = Disk | Annulus | MarkedAnnulus


class Crossing(Record):
    """A crossing: ports 0..3 clockwise, over-strand on one diagonal."""

    __slots__ = ("id", "over")  # str, tuple[int, int]

    def _check(self):
        if self.over not in ((0, 2), (1, 3)):
            raise ValueError("over-strand must occupy diagonal (0,2) or (1,3)")


class Edge(Record):
    """An edge between two attachments; seam is signed along a -> b."""

    __slots__ = ("a", "b", "seam")  # Attachment, Attachment, int
    _defaults = {"seam": 0}


def make_edge(a: Attachment, b: Attachment, seam: int = 0) -> Edge:
    """Normalized edge: ends ordered, seam sign flipped to match."""
    if b < a:
        a, b, seam = b, a, -seam
    return Edge(a, b, seam)


def smoothing_pairs(over: tuple[int, int], sign: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The two port pairs reconnected when a crossing is resolved.

    sign > 0 joins each over-strand port to the next port clockwise,
    sign < 0 to the previous one.
    """
    step = 1 if sign > 0 else -1
    return tuple((p, (p + step) % 4) for p in over)


class Diagram(Record):
    """An immutable diagram on one of the supported surfaces.

    crossings are resolved in tuple order, and crossing ids are plain
    names; loops is the sorted multiset of windings of crossing-free
    closed components (stored nonnegative, a free loop being unoriented).
    The edges alone record the ends at each marked point and their
    heights.
    """

    # Surface, tuple[Crossing, ...], frozenset[Edge], tuple[int, ...]
    __slots__ = ("surface", "crossings", "edges", "loops")
    _defaults = {"crossings": (), "edges": frozenset(), "loops": ()}

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    def ports(self) -> tuple[list[int], list[int], list[int], list[int], list[tuple[str, int]]]:
        """Validate the diagram and compile it to the flat port arrays resolvers walk.

        Nodes are crossing ports (4*ci + port, ci the crossing's index in
        the tuple, which is the order resolvers take them in) followed by
        boundary slots, numbered in surface.points order and
        by height within a point, so slot node numbers increase with
        (point index, height).  Returns (to, w, pos, neg, slots):
        to[v] is the node at the other end of v's edge and w[v] the seam
        count from v to it; pos[v] and neg[v] are a port's partner in the
        positive and negative smoothing; slots[v - 4c] is the (point,
        height) of a slot node.  Raises ValueError unless crossing ids are
        distinct, every edge end at a marked point names a point of the
        surface, every port and every height 0..m-1 of a point with m ends
        is one edge end, and a disk carries no seam counts or winding
        loops.
        """
        ids = [cr.id for cr in self.crossings]
        if len(set(ids)) != len(ids):
            raise ValueError("crossing ids must be distinct")
        node = {("X", cid, k): 4 * ci + k for ci, cid in enumerate(ids) for k in range(4)}
        ends = [x for e in self.edges for x in (e.a, e.b)]
        count = dict.fromkeys(self.surface.points, 0)
        for x in ends:
            if isinstance(x, tuple) and len(x) == 3 and x[0] == "B":
                if x[1] not in count:
                    raise ValueError(f"edge end at unknown marked point {x[1]!r}")
                count[x[1]] += 1
        slots = [(p, h) for p, m in count.items() for h in range(m)]
        for p, h in slots:
            node["B", p, h] = len(node)
        if isinstance(self.surface, Disk):
            if any(e.seam for e in self.edges):
                raise ValueError("seam counts must vanish on a disk")
            if any(self.loops):
                raise ValueError("free loops cannot wind on a disk")
        if len(ends) != len(set(ends)):
            raise ValueError("an attachment point is used by more than one edge end")
        if set(ends) != node.keys():
            raise ValueError("edge ends do not cover every port and endpoint exactly once")
        if any(x < 0 for x in self.loops):
            raise ValueError("free loop windings are stored nonnegative")
        to = [0] * len(node)
        w = [0] * len(node)
        for e in self.edges:
            a, b = node[e.a], node[e.b]
            to[a], w[a], to[b], w[b] = b, e.seam, a, -e.seam
        pos = [0] * (4 * len(ids))
        neg = [0] * (4 * len(ids))
        for ci, cr in enumerate(self.crossings):
            for partner, sign in ((pos, 1), (neg, -1)):
                for i, j in smoothing_pairs(cr.over, sign):
                    partner[4 * ci + i], partner[4 * ci + j] = 4 * ci + j, 4 * ci + i
        return to, w, pos, neg, slots


def _diagram(surface, crossings, edges, loops=()) -> Diagram:
    return Diagram(
        surface,
        tuple(crossings),
        frozenset(edges),
        tuple(sorted(loops)),
    )


# -- builders ---------------------------------------------------------------


def build_core_stack(k: int) -> Diagram:
    """k disjoint core-parallel loops on the annulus, each with seam +1."""
    if k < 0:
        raise ValueError("loop count must be nonnegative")
    return _diagram(Annulus(), (), (), loops=(1,) * k)


def build_theta_over_cores(k: int) -> Diagram:
    """The inner-to-outer arc stacked above k core loops; k crossings.

    The arc is the over-strand everywhere.  Crossing i sits where the arc
    meets loop i (loops ordered inner to outer); ports 0 = toward p1,
    2 = toward p2, 1/3 = the loop, with the loop edge oriented so its
    seam count is +1 from port 1 to port 3.  Crossing i is named ci and
    the crossings are listed in arc order, the order they are resolved in.
    """
    if k < 0:
        raise ValueError("loop count must be nonnegative")
    cids = [f"c{i}" for i in range(1, k + 1)]
    crossings = [Crossing(cid, (0, 2)) for cid in cids]
    edges = []
    prev: Attachment = ("B", "p1", 0)
    for cid in cids:
        edges.append(make_edge(prev, ("X", cid, 0), 0))
        edges.append(make_edge(("X", cid, 1), ("X", cid, 3), 1))
        prev = ("X", cid, 2)
    edges.append(make_edge(prev, ("B", "p2", 0), 0))
    return _diagram(MarkedAnnulus(), crossings, edges)


def disk_surface(n: int) -> Disk:
    """The disk with 2n+2 marked points p0..p{n+1}, q{n}..q1 clockwise."""
    points = [f"p{i}" for i in range(n + 2)] + [f"q{i}" for i in range(n, 0, -1)]
    return Disk(tuple(points))


def build_xk_yn(k: int, n: int) -> Diagram:
    """k vertical strands stacked above n horizontal strands on disk_surface(n).

    Vertical strand l (1 = leftmost) runs p0 -> p{n+1}; horizontal strand m
    runs p{m} -> q{m}.  The verticals are over at all k*n crossings, and at
    the shared endpoints the left strand is above the right one, so strand l
    sits at height k-l.  Crossing (l, m) is named El.m and the crossings
    are listed row-major by (l, m), the order they are resolved in.
    """
    if k < 1 or n < 1:
        raise ValueError("strand counts must be positive")
    cid = {(l, m): f"E{l}.{m}" for l in range(1, k + 1) for m in range(1, n + 1)}
    crossings = [Crossing(c, (0, 2)) for c in cid.values()]
    edges = []
    for l in range(1, k + 1):
        prev: Attachment = ("B", "p0", k - l)
        for m in range(1, n + 1):
            edges.append(make_edge(prev, ("X", cid[l, m], 0), 0))
            prev = ("X", cid[l, m], 2)
        edges.append(make_edge(prev, ("B", f"p{n + 1}", k - l), 0))
    for m in range(1, n + 1):
        prev = ("B", f"p{m}", 0)
        for l in range(1, k + 1):
            edges.append(make_edge(prev, ("X", cid[l, m], 1), 0))
            prev = ("X", cid[l, m], 3)
        edges.append(make_edge(prev, ("B", f"q{m}", 0), 0))
    return _diagram(disk_surface(n), crossings, edges)


def build_zkn(k: int, n: int) -> Diagram:
    """z_(k,n), the all-negative state of build_xk_yn(k, n), as its staircase.

    Negatively resolving every grid crossing leaves no loop, only n+k
    chords, so they are written down directly: p0 at height j-1 to q{j}
    (j = 1..k), p{m} to q{m+k} (m = 1..n-k), and p{n-k+i} to p{n+1} at
    height i-1 (i = 1..k).
    """
    if not 1 <= k <= n:
        raise ValueError("requires 1 <= k <= n")
    edges = [make_edge(("B", "p0", j - 1), ("B", f"q{j}", 0)) for j in range(1, k + 1)]
    edges += [make_edge(("B", f"p{m}", 0), ("B", f"q{m + k}", 0)) for m in range(1, n - k + 1)]
    edges += [
        make_edge(("B", f"p{n - k + i}", 0), ("B", f"p{n + 1}", i - 1)) for i in range(1, k + 1)
    ]
    return _diagram(disk_surface(n), (), edges)


def build_d1_xy() -> Diagram:
    """The one-crossing product of the two crossing arcs on the 4-marked disk.

    The vertical arc p0 -> p2 passes over the horizontal arc p1 -> q1.
    """
    return build_xk_yn(1, 1)


def build_kink(sign: int) -> Diagram:
    """A single closed loop with one self-crossing on an unmarked disk.

    The sign names the framing factor the loop carries: resolving the +
    kink yields -q^3 times the crossingless loop, the - kink -q^-3.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    crossing = Crossing("k0", (1, 3) if sign > 0 else (0, 2))
    edges = [
        make_edge(("X", "k0", 0), ("X", "k0", 3), 0),
        make_edge(("X", "k0", 1), ("X", "k0", 2), 0),
    ]
    return _diagram(Disk(), [crossing], edges)
