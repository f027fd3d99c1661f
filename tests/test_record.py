"""The immutable value base shared by diagrams, basis elements and reports."""

import copy
import pickle

import pytest

from skeincalc.diagram import Annulus, Crossing, Diagram, Disk, Edge
from skeincalc.laurent import ONE, LaurentPoly, q_power
from skeincalc.sequences import UniPoly
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

    @pytest.mark.parametrize(
        "value, field",
        [
            (Edge(A, B, 1), "seam"),
            (LaurentPoly({-1: 2, 3: -1}), "_terms"),
            (UniPoly([q_power(1), 0, 1]), "_coeffs"),
            (SkeinVector({AioArc(2): ONE}), "_terms"),
        ],
        ids=["record", "laurent", "unipoly", "vector"],
    )
    def test_every_immutable_type_refuses_setattr_and_delattr(self, value, field):
        # Deleting a slot used to succeed on the arithmetic types, and the
        # value then failed to hash.
        before = hash(value)
        name = type(value).__name__
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(value, field, None)
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(value, "extra", None)
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            delattr(value, field)
        assert hash(value) == before

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
        assert (d.crossings, d.edges, d.loops) == ((), frozenset(), (0,))

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

    # __setattr__ raises on every immutable type, so copy goes through
    # __reduce__ as pickle does.
    @pytest.mark.parametrize(
        "value",
        [
            Diagram(Annulus(), (Crossing("x", (0, 2)),), frozenset({Edge(A, B, 1)})),
            LaurentPoly({-1: 2, 3: -1}),
            SkeinVector({AioArc(2): ONE, AnnulusPower(1): q_power(-1)}),
            UniPoly([q_power(1), 0, 1]),
            Disk(("p0", "p1", "p2")),
        ],
        ids=["diagram", "laurent", "vector", "unipoly", "disk"],
    )
    def test_pickle_and_copy_round_trip(self, value):
        assert pickle.loads(pickle.dumps(value)) == value
        assert copy.deepcopy(value) == value and copy.copy(value) == value
