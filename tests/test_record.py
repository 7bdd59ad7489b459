"""The value-class base: construction, frozen fields, equality, hash, repr."""

import pytest

from tumax._record import Record
from tumax.certify import TuVerdict
from tumax.cli import CommandReport
from tumax.graphs import ArcGraph, PatternReport
from tumax.matrix import IntMatrix
from tumax.polytopes import PointSet, PolytopeClass
from tumax.sums import SumSpec


class Pair(Record):
    left: int
    right: int = 0


class OtherPair(Record):
    left: int
    right: int = 0


def test_equal_fields_give_equal_records_with_equal_hashes():
    for a, b in [(Pair(1, 2), Pair(left=1, right=2)),
                 (TuVerdict(False, "ghouila-houri", ((0,), (1,), 2)),
                  TuVerdict(False, "ghouila-houri", ((0,), (1,), 2))),
                 (IntMatrix(1, 2, ((3, 4),)), IntMatrix.from_rows([[3, 4]])),
                 (PointSet(1, ((0,), (1,))), PointSet.from_points([(0,), (1,)]))]:
        assert a == b and not a != b
        assert hash(a) == hash(b)
    assert Pair(1, 2) != Pair(1, 3)
    assert len({Pair(1, 2), Pair(1, 2), Pair(2, 1)}) == 2


def test_a_different_class_never_compares_equal():
    assert Pair(1, 2) != OtherPair(1, 2)
    assert Pair(1, 2) != (1, 2)
    assert IntMatrix(0, 0, ()) != PointSet(0, ())


def test_keyword_and_default_construction():
    assert Pair(5) == Pair(5, 0) == Pair(left=5) == Pair(right=0, left=5)
    assert TuVerdict(True, "ghouila-houri").witness is None
    assert CommandReport("c", {}, {}, 0).artifact_text == ""
    spec = SumSpec(kind="one-sum", a=IntMatrix.identity(1),
                   b=IntMatrix.identity(1))
    assert (spec.u, spec.x, spec.c) == (None, None, None)
    assert IntMatrix(rows=1, cols=1, entries=((7,),)) == \
        IntMatrix.from_rows([[7]])
    assert PointSet(points=((1,),), dim=1) == PointSet(1, ((1,),))


@pytest.mark.parametrize("args,kwargs", [
    ((), {}),                       # missing field
    ((1, 2, 3), {}),                # too many
    ((1,), {"left": 1}),            # given twice
    ((1,), {"middle": 1}),          # unknown
])
def test_bad_construction_raises_type_error(args, kwargs):
    with pytest.raises(TypeError):
        Pair(*args, **kwargs)


def test_fields_are_frozen():
    p, m = Pair(1, 2), IntMatrix.identity(2)
    for obj, name in [(p, "left"), (p, "other"), (m, "rows")]:
        with pytest.raises(AttributeError):
            setattr(obj, name, 3)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert (p.left, m.rows) == (1, 2)


def test_repr_names_the_fields():
    assert repr(Pair(1, 2)) == "Pair(left=1, right=2)"
    assert repr(IntMatrix(1, 1, ((3,),))) == \
        "IntMatrix(rows=1, cols=1, entries=((3,),))"


def test_arc_graph_equality_ignores_its_cached_properties():
    computed = ArcGraph.from_arcs(3, [(0, 1), (1, 2)])
    fresh = ArcGraph.from_arcs(3, [(0, 1), (1, 2)])
    assert computed.is_tree() and computed._rooted
    assert "_rooted" in vars(computed)
    assert computed == fresh and hash(computed) == hash(fresh)
    assert repr(computed) == repr(fresh)


def test_polytope_class_compares_by_identity():
    ps = PointSet(1, ((0,), (1,)))
    a = PolytopeClass(1, 2, ps, ("fp",))
    b = PolytopeClass(1, 2, ps, ("fp",))
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_json_dict_of_a_report_keeps_field_order():
    report = PatternReport(odd_bound_ok=None, npaths=1, pattern_count=1,
                           bound=None, bound_ok=None, odd_count=1,
                           odd_bound=None)
    assert list(report.to_json_dict()) == list(PatternReport._fields)


class _BuiltAnnotations(type):
    """Keeps a class's annotations out of its dict, as Python 3.14 does."""

    @property
    def __annotations__(cls):
        return {"left": int, "right": int}


class Lazy(Record, metaclass=_BuiltAnnotations):
    right = 0


def test_fields_come_from_annotations_not_kept_in_the_class_dict():
    assert "__annotations__" not in vars(Lazy)
    assert Lazy._fields == ("left", "right")
    assert Lazy(1) == Lazy(1, 0) and repr(Lazy(1)) == "Lazy(left=1, right=0)"
