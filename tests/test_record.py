"""The immutable value base shared by diagrams, basis elements and reports."""

import copy
import pickle

import pytest

from skeincalc.diagram import Annulus, Crossing, Diagram, Edge
from skeincalc.laurent import ONE
from skeincalc.positivity import Constraint
from skeincalc.skein import AioArc, AnnulusPower, SkeinVector

A = ("B", "p1", 0)
B = ("X", "c01", 2)


class TestRecord:
    def test_assignment_and_deletion_raise(self):
        e = Edge(A, B, 1)
        with pytest.raises(AttributeError):
            e.seam = 2
        with pytest.raises(AttributeError):
            e.extra = 2
        with pytest.raises(AttributeError):
            del e.seam
        assert e.seam == 1

    def test_equality_depends_on_type(self):
        assert AnnulusPower(3) == AnnulusPower(3)
        assert hash(AnnulusPower(3)) == hash(AioArc(3)) == hash((3,))
        assert AnnulusPower(3) != AioArc(3)
        assert AnnulusPower(3) != (3,)
        v = SkeinVector({AnnulusPower(3): ONE, AioArc(3): ONE})
        assert len(v) == 2

    def test_keyword_and_default_construction(self):
        assert Edge(A, B) == Edge(A, B, 0) == Edge(a=A, b=B, seam=0) == Edge(A, b=B)
        d = Diagram(surface=Annulus(), loops=(0,))
        assert (d.crossings, d.edges, d.loops, d.slots) == ((), frozenset(), (0,), ())
        assert Constraint("c_0", ONE, True).kind == "positivity"

    @pytest.mark.parametrize(
        "args, kwargs",
        [((A,), {}), ((A, B, 0, 1), {}), ((A, B), {"a": A}), ((A, B), {"sign": 1})],
    )
    def test_bad_arguments_raise_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            Edge(*args, **kwargs)

    def test_crossing_checks_its_diagonal(self):
        assert Crossing("x", (1, 3)).over == (1, 3)
        with pytest.raises(ValueError, match="diagonal"):
            Crossing("x", (0, 1))
        with pytest.raises(ValueError, match="diagonal"):
            Crossing(id="x", over=(0, 1))

    def test_repr(self):
        assert repr(Edge(A, B, 1)) == "Edge(a=('B', 'p1', 0), b=('X', 'c01', 2), seam=1)"
        assert repr(AioArc(-2)) == "AioArc(n=-2)"
        assert repr(Annulus()) == "Annulus()"

    def test_pickle_and_copy_round_trip(self):
        d = Diagram(Annulus(), (Crossing("x", (0, 2)),), frozenset({Edge(A, B, 1)}))
        assert pickle.loads(pickle.dumps(d)) == d
        assert copy.deepcopy(d) == d and copy.copy(d) == d
