"""compose surface: sum constructions, validation, functional transport."""

import random
import re

import pytest

from tumax.certify import is_totally_unimodular, polytopal_certificate
from tumax.errors import (
    FormatError,
    PreconditionError,
    UsageError,
)
from tumax.families import bipartite_extremal
from tumax.matrix import IntMatrix
from tumax.sums import SumSpec, compose, transport_functional

from specgen import functional_values, random_certificate, random_spec


def _one_sum(a, b):
    return compose(SumSpec("one-sum", a, b)).matrix


def test_one_sum_identities():
    assert (_one_sum(IntMatrix.identity(2), IntMatrix.identity(3))
            == IntMatrix.identity(5))
    a = IntMatrix.from_rows([[1, -1], [0, 1]])
    assert _one_sum(a, IntMatrix(0, 0, ())) == a


def test_two_sum_block_structure():
    a = IntMatrix.from_rows([[1, 0], [0, 1]])
    u = (1, -1)
    v = (1, 1, 0)
    b = IntMatrix.from_rows([[1, 0, 0], [0, 1, 1]])
    m = compose(SumSpec("two-sum", a, b, u=u, v=v)).matrix
    assert m.to_lists() == [
        [1, 0, 1, 1, 0],
        [0, 1, -1, -1, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 1],
    ]


def test_two_sum_zero_u_reduces_to_block_diagonal():
    a = IntMatrix.identity(2)
    b = IntMatrix.identity(2)
    m = compose(SumSpec("two-sum", a, b, u=(0, 0), v=(1, 0))).matrix
    assert m == _one_sum(a, b)


def test_two_sum_adds_standard_basis_column():
    prepared = bipartite_extremal(3)
    v = prepared.row(0)
    b = prepared.submatrix(range(1, 3), range(4))
    m = compose(SumSpec("two-sum", IntMatrix.from_rows([[1]]), b,
                        u=(1,), v=v)).matrix
    assert m.col(0) == (1, 0, 0)
    assert m.submatrix(range(3), range(1, 5)) == prepared
    assert is_totally_unimodular(m).is_tu
    assert polytopal_certificate(m) is not None


def test_two_sum_rejects_non_tu_factor():
    bad = IntMatrix.from_rows([[1, 1], [1, -1]])  # (A|u) with 2x2 minor -2
    with pytest.raises(PreconditionError):
        compose(SumSpec("two-sum", bad.submatrix(range(2), [0]),
                        IntMatrix.identity(1), u=bad.col(1), v=(1,)))


FACTOR_NAMES = {
    "one-sum": ("A", "B"),
    "two-sum": ("(A|u)", "(v^T;B)"),
    "three-sum": ("(A|u1|u2|u3)", "(v1;v2;v3;B)"),
    "delta-sum": ("(A u' u'; u^T 0 x)", "(v^T 0 x; B v' v')"),
}


@pytest.mark.parametrize("kind", sorted(FACTOR_NAMES))
def test_every_kind_refuses_a_non_tu_factor(kind):
    # an entry 2 in A or in B leaves the sum's structure valid but puts a
    # 1x1 minor of 2 into the factor that holds it
    rng = random.Random(55)
    for block, name in zip(("A", "B"), FACTOR_NAMES[kind]):
        data = random_spec(rng, kind).to_json_dict()
        data[block][0][0] = 2
        spec = SumSpec.from_json_dict(data)
        with pytest.raises(PreconditionError,
                           match=f"^{re.escape(name)} is not totally "
                                 f"unimodular$"):
            compose(spec)


def test_three_sum_zero_glue_is_block_diagonal():
    rng = random.Random(50)
    spec = random_spec(rng, "three-sum")
    zero = IntMatrix.zeros(spec.a.rows, spec.b.cols)
    z = (0,) * spec.b.cols
    spec0 = SumSpec("three-sum", spec.a, spec.b, u1=spec.u1, u2=spec.u2,
                    u3=spec.u3, v1=spec.v1, v2=spec.v2, v3=spec.v3, c=zero)
    got = compose(spec0)
    assert got.matrix == _one_sum(spec.a, spec.b)
    assert got.two_sum_shaped is False


def test_three_sum_two_sum_shape_is_flagged():
    rng = random.Random(51)
    for _ in range(20):
        spec = random_spec(rng, "three-sum")
        if all(x == 0 for x in spec.u1):
            continue
        glue = IntMatrix.from_rows(
            [[spec.u1[i] * spec.v1[j] for j in range(spec.b.cols)]
             for i in range(spec.a.rows)])
        shaped = SumSpec("three-sum", spec.a, spec.b, u1=spec.u1, u2=spec.u2,
                         u3=spec.u3, v1=spec.v1, v2=spec.v2, v3=spec.v3, c=glue)
        got = compose(shaped)
        assert got.two_sum_shaped
        return
    pytest.fail("no usable spec generated")


def test_three_sum_validation_errors():
    rng = random.Random(52)
    spec = random_spec(rng, "three-sum")
    bad_c = IntMatrix.from_rows([[7] * spec.b.cols
                                 for _ in range(spec.a.rows)])
    with pytest.raises(UsageError):
        compose(SumSpec("three-sum", spec.a, spec.b, u1=spec.u1, u2=spec.u2,
                        u3=spec.u3, v1=spec.v1, v2=spec.v2, v3=spec.v3,
                        c=bad_c))
    with pytest.raises(UsageError):
        compose(SumSpec("three-sum", spec.a, spec.b, u1=spec.u1, u2=spec.u2,
                        u3=spec.u1, v1=spec.v1, v2=spec.v2, v3=spec.v3,
                        c=spec.c))
    small = IntMatrix.identity(1)
    with pytest.raises(UsageError):
        compose(SumSpec("three-sum", small, spec.b, u1=(1,), u2=(-1,),
                        u3=(0,), v1=spec.v1, v2=spec.v2, v3=spec.v3,
                        c=IntMatrix.zeros(1, spec.b.cols)))


def test_delta_sum_block_structure_and_x_cases():
    rng = random.Random(53)
    seen_x = set()
    for _ in range(30):
        spec = random_spec(rng, "delta-sum")
        seen_x.add(spec.x)
        m = compose(spec).matrix
        m1, n1 = spec.a.rows, spec.a.cols
        for i in range(m1):
            for j in range(spec.b.cols):
                assert m[i, n1 + j] == spec.u_prime[i] * spec.v[j]
        for i in range(spec.b.rows):
            for j in range(n1):
                assert m[m1 + i, j] == spec.v_prime[i] * spec.u[j]
    assert seen_x == {-1, 1}


def test_delta_sum_zero_u_vprime_gives_block_triangles():
    a = IntMatrix.identity(2)
    b = IntMatrix.identity(2)
    m = compose(SumSpec("delta-sum", a, b, u=(0, 0), u_prime=(1, 0),
                        v=(0, 1), v_prime=(0, 0), x=1)).matrix
    for i in range(2):
        for j in range(2):
            assert m[2 + i, j] == 0


def _with_x(spec, x):
    """The delta-sum ``spec`` with x replaced."""
    return SumSpec("delta-sum", spec.a, spec.b, u=spec.u, v=spec.v,
                   u_prime=spec.u_prime, v_prime=spec.v_prime, x=x)


def test_delta_sum_rejects_bad_x():
    rng = random.Random(54)
    spec = random_spec(rng, "delta-sum")
    with pytest.raises(UsageError):
        compose(_with_x(spec, 2))


def test_three_sum_incoherent_glue_is_not_tu():
    """The definition's structural conditions alone do not force TU closure.

    This fixed instance satisfies every validity condition (TU factors,
    zero sums, rows/columns in the +-u/+-v sets) yet the same-signed glue
    u1 v1^T + u2 v2^T yields a 3x3 minor of -2; flipping the relative
    sign restores total unimodularity. The random generator therefore
    draws coherently signed glue.
    """
    a = IntMatrix.from_rows([[-1, -1, 0], [0, -1, 0], [0, -1, 0]])
    b = IntMatrix.from_rows([[0, -1, -1, 0], [0, 0, 0, 1]])
    u1, u2, u3 = (0, 1, 0), (0, 0, 1), (0, -1, -1)
    v1, v2, v3 = (0, 1, 0, 0), (0, 0, 1, 0), (0, -1, -1, 0)

    def build(sign):
        c = IntMatrix.from_rows(
            [[u1[i] * v1[j] + sign * u2[i] * v2[j] for j in range(4)]
             for i in range(3)])
        return compose(SumSpec("three-sum", a, b, u1=u1, u2=u2, u3=u3,
                               v1=v1, v2=v2, v3=v3, c=c)).matrix

    assert not is_totally_unimodular(build(+1)).is_tu
    assert is_totally_unimodular(build(-1)).is_tu


@pytest.mark.parametrize("kind", ["one-sum", "two-sum", "three-sum", "delta-sum"])
def test_sum_preserves_tu_randomized(kind):
    rng = random.Random(hash(kind) % 10000)
    for _ in range(40):
        spec = random_spec(rng, kind)
        m = compose(spec).matrix
        assert is_totally_unimodular(m).is_tu


def test_transport_two_sum_formula_and_reverify():
    rng = random.Random(55)
    for _ in range(60):
        spec = random_spec(rng, "two-sum")
        composed = compose(spec).matrix
        f, w = random_certificate(rng, composed)
        try:
            (part,) = transport_functional(spec, f, w)
        except PreconditionError:
            continue
        m1 = spec.a.rows
        fu = sum(c * x for c, x in zip(f[:m1], spec.u))
        assert part.functional == (fu,) + f[m1:]
        assert functional_values(part.functional, part.factor) == part.w_part
        assert part.w_part == w[spec.a.cols:]


def test_transport_three_sum_reverifies():
    rng = random.Random(56)
    hits = 0
    for _ in range(80):
        spec = random_spec(rng, "three-sum")
        composed = compose(spec).matrix
        f, w = random_certificate(rng, composed)
        try:
            (part,) = transport_functional(spec, f, w)
        except PreconditionError:
            continue
        assert functional_values(part.functional, part.factor) == part.w_part
        assert part.factor.rows == spec.b.rows + 2
        hits += 1
    assert hits >= 30


def test_transport_delta_sum_formulas():
    rng = random.Random(57)
    for _ in range(60):
        spec = random_spec(rng, "delta-sum")
        composed = compose(spec).matrix
        f, w = random_certificate(rng, composed)
        first, second = transport_functional(spec, f, w)
        m1 = spec.a.rows
        fv = sum(c * x for c, x in zip(f[m1:], spec.v_prime))
        fu = sum(c * x for c, x in zip(f[:m1], spec.u_prime))
        assert first.functional == f[:m1] + (fv,)
        assert second.functional == (fu,) + f[m1:]
        assert functional_values(first.functional, first.factor) == first.w_part
        assert (functional_values(second.functional, second.factor)
                == second.w_part)


# the texts of the transport hypotheses that a random certificate can miss
_HYPOTHESIS = re.compile("row classification is ambiguous|"
                         "[+]-v1 and [+]-v2 must both appear")


def test_transport_distinct_column_inheritance():
    rng = random.Random(58)
    checked = {"two-sum": 0, "three-sum": 0, "delta-sum": 0}
    for kind in checked:
        for _ in range(120):
            spec = random_spec(rng, kind)
            composed = compose(spec).matrix
            if not composed.columns_distinct():
                continue
            f, w = random_certificate(rng, composed)
            try:
                parts = transport_functional(spec, f, w)
            except PreconditionError as exc:
                assert _HYPOTHESIS.match(str(exc)), exc
                continue
            for part in parts:
                assert part.factor.columns_distinct()
            checked[kind] += 1
    assert all(v >= 20 for v in checked.values())


def test_transport_hypothesis_errors():
    rng = random.Random(59)
    spec = random_spec(rng, "three-sum")
    # glue using only +-v1 rows: the +-v2 hypothesis fails
    glue = IntMatrix.from_rows(
        [[spec.u1[i] * spec.v1[j] for j in range(spec.b.cols)]
         for i in range(spec.a.rows)])
    shaped = SumSpec("three-sum", spec.a, spec.b, u1=spec.u1, u2=spec.u2,
                     u3=spec.u3, v1=spec.v1, v2=spec.v2, v3=spec.v3, c=glue)
    composed = compose(shaped).matrix
    f, w = random_certificate(rng, composed)
    with pytest.raises(PreconditionError, match="^[+]-v1 and [+]-v2 must "
                                                "both appear"):
        transport_functional(shaped, f, w)
    # degenerate classification: v2 = -v1 forces v3 = 0
    n2 = spec.b.cols
    v1 = spec.v1
    degen = SumSpec("three-sum", spec.a, spec.b, u1=spec.u1, u2=spec.u2,
                    u3=spec.u3, v1=v1, v2=tuple(-x for x in v1),
                    v3=(0,) * n2, c=IntMatrix.zeros(spec.a.rows, n2))
    composed = compose(degen).matrix
    f, w = random_certificate(rng, composed)
    with pytest.raises(PreconditionError, match="^row classification is "
                                                "ambiguous"):
        transport_functional(degen, f, w)


def test_transport_precondition_errors():
    rng = random.Random(60)
    spec = random_spec(rng, "two-sum")
    composed = compose(spec).matrix
    with pytest.raises(UsageError):
        transport_functional(random_spec(rng, "one-sum"),
                             (1,), (1,))
    f, w = random_certificate(rng, composed)
    wrong = tuple(x + 1 for x in w)
    with pytest.raises(PreconditionError):
        transport_functional(spec, f, wrong)
    with pytest.raises(PreconditionError):
        transport_functional(spec, (0,) * composed.rows,
                             (0,) * composed.cols)


def test_compose_vectors_accept_only_integers():
    # a float or a bool is no integer, even where it equals one
    one = IntMatrix.identity(1)
    assert compose(SumSpec("two-sum", one, one, u=(1,), v=(1,))).matrix == (
        IntMatrix.from_rows([[1, 1], [0, 1]]))
    for u, v, name in (((1.5,), (1,), "u"), ((1,), (True,), "v"),
                       ((1.0,), (1,), "u"), (("1",), (1,), "u")):
        with pytest.raises(UsageError, match=f"^{name} must hold integers"):
            compose(SumSpec("two-sum", one, one, u=u, v=v))
    rng = random.Random(62)
    spec = random_spec(rng, "delta-sum")
    with pytest.raises(UsageError, match="x must be"):
        compose(_with_x(spec, True))


def test_transport_f_and_w_accept_only_integers():
    rng = random.Random(63)
    spec = random_spec(rng, "two-sum")
    composed = compose(spec).matrix
    while True:
        f, w = random_certificate(rng, composed)
        try:
            want = transport_functional(spec, f, w)
            break
        except PreconditionError:
            continue
    # any int sequence is read as the f or w it spells
    assert transport_functional(spec, list(f), list(w)) == want
    for bad in (0.5, True):
        with pytest.raises(UsageError, match="^f must hold integers"):
            transport_functional(spec, (bad,) + f[1:], w)
        with pytest.raises(UsageError, match="^w must hold integers"):
            transport_functional(spec, f, (bad,) + w[1:])


def test_spec_json_round_trip():
    rng = random.Random(61)
    for kind in ("one-sum", "two-sum", "three-sum", "delta-sum"):
        spec = random_spec(rng, kind)
        again = SumSpec.from_json_dict(spec.to_json_dict())
        assert again == spec
        assert compose(again).matrix == compose(spec).matrix


# Every error that compose, transport_functional and SumSpec.from_json_dict
# report, with its exact text, and which of two faults each reports first.
# The base specs are valid; each case changes some of their fields.
_R = IntMatrix.from_rows


def _two_at_origin(m):
    """``m`` with the entry (0, 0) set to 2: a 1x1 minor that is not TU."""
    return _R([(2,) + m.row(0)[1:]] + list(m.entries[1:]))


_THREE_A = _R([[-1, -1, 0], [0, -1, 0], [0, -1, 0]])
_THREE_B = _R([[0, -1, -1, 0], [0, 0, 0, 1]])
_THREE_C = _R([[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0]])
BASE_SPECS = {
    "one-sum": SumSpec("one-sum", IntMatrix.identity(1), IntMatrix.identity(1)),
    # m1 = 1, n1 = 2, m2 = 2, n2 = 3
    "two-sum": SumSpec("two-sum", _R([[1, 0]]), _R([[1, 0, 1], [0, 1, 0]]),
                       u=(1,), v=(1, 1, 0)),
    # m1 = 3, n1 = 3, m2 = 2, n2 = 4; C = u1 v1^T - u2 v2^T
    "three-sum": SumSpec("three-sum", _THREE_A, _THREE_B,
                         u1=(0, 1, 0), u2=(0, 0, 1), u3=(0, -1, -1),
                         v1=(0, 1, 0, 0), v2=(0, 0, 1, 0), v3=(0, -1, -1, 0),
                         c=_THREE_C),
    # m1 = 2, n1 = 3, m2 = 2, n2 = 2
    "delta-sum": SumSpec("delta-sum", _R([[1, 0, 0], [0, 1, 0]]),
                         IntMatrix.identity(2), u=(0, 0, 0), v=(0, 1),
                         u_prime=(1, 0), v_prime=(0, 0), x=1),
}


def _changed(kind, /, **changes):
    base = BASE_SPECS[kind]
    return SumSpec(**{**{f: getattr(base, f) for f in SumSpec._fields},
                      **changes})


def _vector_cases(kind, lengths):
    for name, length in lengths:
        yield (f"{kind}/{name}-missing", kind, {name: None}, UsageError,
               f"{name} is required for this sum kind")
        yield (f"{kind}/{name}-too-long", kind,
               {name: getattr(BASE_SPECS[kind], name) + (0,)}, UsageError,
               f"{name} must have length {length}, got {length + 1}")


_TWO, _THREE, _DELTA = (BASE_SPECS[k] for k in ("two-sum", "three-sum",
                                                 "delta-sum"))
_BAD_ROW_C = _R([[0, 0, 0, 0], [1, 1, 1, 1], [0, 0, 0, 0]])  # columns +-u1
_BAD_COLUMN_C = _R([[7, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0]])
COMPOSE_ERRORS = [
    ("unknown-kind", "one-sum", {"kind": "four-sum"}, UsageError,
     "unknown sum kind 'four-sum'"),
    ("one-sum/A-not-tu", "one-sum", {"a": _R([[2]])}, PreconditionError,
     "A is not totally unimodular"),
    ("one-sum/B-not-tu", "one-sum", {"b": _R([[2]])}, PreconditionError,
     "B is not totally unimodular"),
    ("one-sum/A-before-B", "one-sum", {"a": _R([[2]]), "b": _R([[2]])},
     PreconditionError, "A is not totally unimodular"),
    *_vector_cases("two-sum", (("u", 1), ("v", 3))),
    ("two-sum/u-float", "two-sum", {"u": (1.5,)}, UsageError,
     "u must hold integers, got 1.5"),
    ("two-sum/v-bool", "two-sum", {"v": (1, True, 0)}, UsageError,
     "v must hold integers, got True"),
    ("two-sum/u-before-v", "two-sum", {"u": (1, 0), "v": None}, UsageError,
     "u must have length 1, got 2"),
    ("two-sum/first-factor-not-tu", "two-sum", {"u": (2,)},
     PreconditionError, "(A|u) is not totally unimodular"),
    ("two-sum/second-factor-not-tu", "two-sum",
     {"b": _two_at_origin(_TWO.b)}, PreconditionError,
     "(v^T;B) is not totally unimodular"),
    ("two-sum/first-before-second", "two-sum",
     {"a": _two_at_origin(_TWO.a), "b": _two_at_origin(_TWO.b)},
     PreconditionError, "(A|u) is not totally unimodular"),
    ("two-sum/length-before-tu", "two-sum",
     {"a": _two_at_origin(_TWO.a), "v": (1,)}, UsageError,
     "v must have length 3, got 1"),
    ("three-sum/too-small", "three-sum", {"b": IntMatrix.identity(1)},
     UsageError, "three-sum factors must each have size >= 4"),
    ("three-sum/size-before-vectors", "three-sum",
     {"a": IntMatrix.identity(1), "u1": None}, UsageError,
     "three-sum factors must each have size >= 4"),
    *_vector_cases("three-sum", (("u1", 3), ("u2", 3), ("u3", 3),
                                 ("v1", 4), ("v2", 4), ("v3", 4))),
    ("three-sum/u3-before-v1", "three-sum", {"u3": None, "v1": (0,)},
     UsageError, "u3 is required for this sum kind"),
    ("three-sum/u-sum", "three-sum", {"u3": (0, -1, 0)}, UsageError,
     "u1 + u2 + u3 must be zero"),
    ("three-sum/v-sum", "three-sum", {"v3": (0, -1, 0, 0)}, UsageError,
     "v1 + v2 + v3 must be zero"),
    ("three-sum/u-sum-before-v-sum", "three-sum",
     {"u3": (0, -1, 0), "v3": (0, -1, 0, 0)}, UsageError,
     "u1 + u2 + u3 must be zero"),
    ("three-sum/C-missing", "three-sum", {"c": None}, UsageError,
     "C must be a 3x4 matrix"),
    ("three-sum/C-transposed", "three-sum", {"c": IntMatrix.zeros(4, 3)},
     UsageError, "C must be a 3x4 matrix"),
    ("three-sum/C-column", "three-sum", {"c": _BAD_COLUMN_C}, UsageError,
     "column 0 of C is not one of +-u1,u2,u3,0"),
    ("three-sum/C-row", "three-sum", {"c": _BAD_ROW_C}, UsageError,
     "row 1 of C is not one of +-v1,v2,v3,0"),
    ("three-sum/vector-before-C", "three-sum",
     {"u2": (0, 0), "c": _BAD_COLUMN_C}, UsageError,
     "u2 must have length 3, got 2"),
    ("three-sum/zero-sum-before-C", "three-sum",
     {"v3": (0, -1, 0, 0), "c": None}, UsageError,
     "v1 + v2 + v3 must be zero"),
    ("three-sum/first-factor-not-tu", "three-sum",
     {"a": _two_at_origin(_THREE.a)}, PreconditionError,
     "(A|u1|u2|u3) is not totally unimodular"),
    ("three-sum/second-factor-not-tu", "three-sum",
     {"b": _two_at_origin(_THREE.b)}, PreconditionError,
     "(v1;v2;v3;B) is not totally unimodular"),
    ("three-sum/C-before-tu", "three-sum",
     {"a": _two_at_origin(_THREE.a), "c": _BAD_ROW_C}, UsageError,
     "row 1 of C is not one of +-v1,v2,v3,0"),
    ("delta-sum/too-small", "delta-sum",
     {"a": IntMatrix.identity(1), "u": (0,), "u_prime": (1,)}, UsageError,
     "delta-sum blocks must each have size >= 4"),
    ("delta-sum/size-before-x", "delta-sum",
     {"b": IntMatrix.identity(1), "x": 2}, UsageError,
     "delta-sum blocks must each have size >= 4"),
    *((f"delta-sum/x-{x!r}", "delta-sum", {"x": x}, UsageError,
       "x must be +1 or -1") for x in (2, 0, None, True, 1.0)),
    ("delta-sum/x-before-vectors", "delta-sum", {"x": 0, "u_prime": None},
     UsageError, "x must be +1 or -1"),
    *_vector_cases("delta-sum", (("u", 3), ("v", 2), ("u_prime", 2),
                                 ("v_prime", 2))),
    ("delta-sum/u-before-v-prime", "delta-sum", {"u": None, "v_prime": (0,)},
     UsageError, "u is required for this sum kind"),
    ("delta-sum/first-factor-not-tu", "delta-sum",
     {"a": _two_at_origin(_DELTA.a)}, PreconditionError,
     "(A u' u'; u^T 0 x) is not totally unimodular"),
    ("delta-sum/second-factor-not-tu", "delta-sum",
     {"b": _two_at_origin(_DELTA.b)}, PreconditionError,
     "(v^T 0 x; B v' v') is not totally unimodular"),
    ("delta-sum/length-before-tu", "delta-sum",
     {"a": _two_at_origin(_DELTA.a), "u": (0, 0)}, UsageError,
     "u must have length 3, got 2"),
]


def _raises_exactly(exc, message, call, *args):
    with pytest.raises(exc) as info:
        call(*args)
    assert (type(info.value), str(info.value)) == (exc, message)


@pytest.mark.parametrize("kind", sorted(BASE_SPECS))
def test_base_specs_compose(kind):
    got = compose(BASE_SPECS[kind])
    assert got.matrix.rows > 0
    # only a 3-sum can have the 2-sum shape
    assert (got.two_sum_shaped is None) == (kind != "three-sum")


@pytest.mark.parametrize("case, kind, changes, exc, message", COMPOSE_ERRORS,
                         ids=[c[0] for c in COMPOSE_ERRORS])
def test_compose_error_texts_and_precedence(case, kind, changes, exc,
                                            message):
    _raises_exactly(exc, message, compose, _changed(kind, **changes))


_DROP = object()
_VECTOR_NAMES = ("u", "v", "u_prime", "v_prime", "u1", "u2", "u3",
                 "v1", "v2", "v3")
JSON_ERRORS = [
    ("not-an-object", [1, 2], FormatError, "a SumSpec must be a JSON object"),
    ("unknown-kind", {"kind": "four-sum"}, UsageError,
     "unknown sum kind 'four-sum'"),
    ("kind-missing", {"kind": _DROP}, UsageError, "unknown sum kind None"),
    ("kind-before-x", {"kind": "two", "x": 1.5}, UsageError,
     "unknown sum kind 'two'"),
    ("x-float", {"x": 1.5}, FormatError, "x must be an integer, got 1.5"),
    ("x-bool", {"x": True}, FormatError, "x must be an integer, got True"),
    ("x-before-A", {"x": "1", "A": _DROP}, FormatError,
     "x must be an integer, got '1'"),
    ("A-missing", {"A": _DROP}, FormatError, "a SumSpec needs the matrix 'A'"),
    ("A-not-a-list", {"A": 5}, FormatError, "A must be a list of rows"),
    ("A-row-not-a-list", {"A": [5]}, FormatError, "A must hold integers, got 5"),
    ("A-float", {"A": [[1.5]]}, FormatError, "A must hold integers, got [1.5]"),
    ("A-ragged", {"A": [[1], [1, 0]]}, UsageError,
     "rows have inconsistent lengths"),
    ("A-before-B", {"A": _DROP, "B": _DROP}, FormatError,
     "a SumSpec needs the matrix 'A'"),
    ("B-missing", {"B": _DROP}, FormatError, "a SumSpec needs the matrix 'B'"),
    ("B-before-u", {"B": [[True]], "u": 5}, FormatError,
     "B must hold integers, got [True]"),
    *((f"{name}-float", {name: [1, 1.5]}, FormatError,
       f"{name} must hold integers, got [1, 1.5]") for name in _VECTOR_NAMES),
    *((f"{first}-before-{then}", {first: 5, then: [True]}, FormatError,
       f"{first} must hold integers, got 5")
      for first, then in zip(_VECTOR_NAMES, _VECTOR_NAMES[1:])),
    ("v3-before-C", {"v3": [1.5], "C": 5}, FormatError,
     "v3 must hold integers, got [1.5]"),
    ("u-before-C", {"u": "1", "C": [[0.5]]}, FormatError,
     "u must hold integers, got '1'"),
    ("C-not-a-list", {"C": 5}, FormatError, "C must be a list of rows"),
    ("C-float", {"C": [[0, 0.5]]}, FormatError,
     "C must hold integers, got [0, 0.5]"),
]


@pytest.mark.parametrize("case, changes, exc, message", JSON_ERRORS,
                         ids=[c[0] for c in JSON_ERRORS])
def test_from_json_dict_error_texts_and_precedence(case, changes, exc,
                                                   message):
    # a one-sum object: the vectors and C are read whatever the kind
    data = changes
    if isinstance(changes, dict):
        data = {"kind": "one-sum", "A": [[1]], "B": [[1]], **changes}
        data = {k: v for k, v in data.items() if v is not _DROP}
    _raises_exactly(exc, message, SumSpec.from_json_dict, data)


def _e1_certificate(spec):
    composed = compose(spec).matrix
    f = (1,) + (0,) * (composed.rows - 1)
    return f, functional_values(f, composed)


_F, _W = _e1_certificate(_TWO)  # a 3x5 composed matrix
_ZERO_V3 = _changed("three-sum", v2=(0, -1, 0, 0), v3=(0, 0, 0, 0),
                    c=IntMatrix.zeros(3, 4))
_NO_V2_ROW = _changed("three-sum",
                      c=_R([[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]]))
TRANSPORT_ERRORS = [
    ("one-sum", BASE_SPECS["one-sum"], (1,), (1,), UsageError,
     "no transport is defined for a one-sum"),
    ("one-sum-before-validation", _changed("one-sum", a=_R([[2]])), (1,),
     (1,), UsageError, "no transport is defined for a one-sum"),
    ("unknown-kind", _changed("two-sum", kind="four-sum"), _F, _W, UsageError,
     "unknown sum kind 'four-sum'"),
    ("spec-before-w", _changed("two-sum", u=None), _F, (1.5,) + _W[1:],
     UsageError, "u is required for this sum kind"),
    ("w-float", _TWO, _F, (1.5,) + _W[1:], UsageError,
     "w must hold integers, got 1.5"),
    ("w-too-short", _TWO, _F, _W[:-1], PreconditionError,
     "w length must match the composed matrix"),
    ("w-before-f", _TWO, (0, 0, 0), _W[:-1], PreconditionError,
     "w length must match the composed matrix"),
    ("f-zero", _TWO, (0, 0, 0), (0,) * 5, PreconditionError,
     "certificate functional must be nonzero"),
    ("f-too-short", _TWO, (1,), _W, UsageError,
     "functional length must equal the row count"),
    ("w-not-certified", _TWO, _F, tuple(x + 1 for x in _W), PreconditionError,
     "f does not certify the composed matrix as w-valued"),
    ("three-sum/zero-v3", _ZERO_V3, *_e1_certificate(_ZERO_V3),
     PreconditionError, "row classification is ambiguous: some v_l = 0"),
    ("three-sum/no-v2-row", _NO_V2_ROW, *_e1_certificate(_NO_V2_ROW),
     PreconditionError, "+-v1 and +-v2 must both appear as rows of C"),
]


@pytest.mark.parametrize("case, spec, f, w, exc, message", TRANSPORT_ERRORS,
                         ids=[c[0] for c in TRANSPORT_ERRORS])
def test_transport_error_texts_and_precedence(case, spec, f, w, exc, message):
    _raises_exactly(exc, message, transport_functional, spec, f, w)


def test_transport_reads_list_vectors_as_compose_does():
    spec = random_spec(random.Random(0), "three-sum")
    as_lists = SumSpec("three-sum", spec.a, spec.b, c=spec.c, **{
        name: list(getattr(spec, name))
        for name in ("u1", "u2", "u3", "v1", "v2", "v3")})
    assert compose(as_lists) == compose(spec)
    f, w = _e1_certificate(spec)
    assert transport_functional(as_lists, f, w) == transport_functional(
        spec, f, w)


def test_two_sum_with_an_empty_a_is_b():
    b = IntMatrix.identity(2)
    spec = SumSpec.from_json_dict(
        {"kind": "two-sum", "A": [], "B": b.to_lists(), "u": [], "v": [1, 0]})
    assert (spec.a.rows, spec.a.cols) == (0, 0)
    assert compose(spec).matrix == b


def test_compose_vectors_must_be_sequences():
    one = IntMatrix.identity(1)
    _raises_exactly(UsageError, "u must be a sequence of integers, got 5",
                    compose, SumSpec("two-sum", one, one, u=5, v=(1,)))
