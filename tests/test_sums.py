"""compose surface: sum constructions, validation, functional transport."""

import random
import re

import pytest

from tumax.certify import Functional, is_totally_unimodular, polytopal_certificate
from tumax.errors import HypothesisError, PreconditionError, UsageError
from tumax.families import bipartite_extremal
from tumax.matrix import IntMatrix
from tumax.sums import SumSpec, compose, transport_functional

from specgen import random_certificate, random_spec


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
    assert got.report.two_sum_shaped is False


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
        assert got.report.two_sum_shaped
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
            res = transport_functional(spec, f, w)
        except PreconditionError:
            continue
        (part,) = res.parts
        m1 = spec.a.rows
        fu = sum(c * x for c, x in zip(f.coeffs[:m1], spec.u))
        assert part.functional.coeffs == (fu,) + f.coeffs[m1:]
        assert part.functional.apply(part.factor) == part.w_part
        assert part.w_part == w[spec.a.cols:]


def test_transport_three_sum_reverifies():
    rng = random.Random(56)
    hits = 0
    for _ in range(80):
        spec = random_spec(rng, "three-sum")
        composed = compose(spec).matrix
        f, w = random_certificate(rng, composed)
        try:
            res = transport_functional(spec, f, w)
        except (HypothesisError, PreconditionError):
            continue
        (part,) = res.parts
        assert part.functional.apply(part.factor) == part.w_part
        assert part.factor.rows == spec.b.rows + 2
        hits += 1
    assert hits >= 30


def test_transport_delta_sum_formulas():
    rng = random.Random(57)
    for _ in range(60):
        spec = random_spec(rng, "delta-sum")
        composed = compose(spec).matrix
        f, w = random_certificate(rng, composed)
        res = transport_functional(spec, f, w)
        first, second = res.parts
        m1 = spec.a.rows
        fv = sum(c * x for c, x in zip(f.coeffs[m1:], spec.v_prime))
        fu = sum(c * x for c, x in zip(f.coeffs[:m1], spec.u_prime))
        assert first.functional.coeffs == f.coeffs[:m1] + (fv,)
        assert second.functional.coeffs == (fu,) + f.coeffs[m1:]
        assert first.functional.apply(first.factor) == first.w_part
        assert second.functional.apply(second.factor) == second.w_part


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
                res = transport_functional(spec, f, w)
            except HypothesisError:
                continue
            for part in res.parts:
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
    with pytest.raises(HypothesisError):
        transport_functional(shaped, f, w)
    # degenerate classification: v2 = -v1 forces v3 = 0
    n2 = spec.b.cols
    v1 = spec.v1
    degen = SumSpec("three-sum", spec.a, spec.b, u1=spec.u1, u2=spec.u2,
                    u3=spec.u3, v1=v1, v2=tuple(-x for x in v1),
                    v3=(0,) * n2, c=IntMatrix.zeros(spec.a.rows, n2))
    composed = compose(degen).matrix
    f, w = random_certificate(rng, composed)
    with pytest.raises(HypothesisError):
        transport_functional(degen, f, w)


def test_transport_precondition_errors():
    rng = random.Random(60)
    spec = random_spec(rng, "two-sum")
    composed = compose(spec).matrix
    with pytest.raises(UsageError):
        transport_functional(random_spec(rng, "one-sum"),
                             Functional((1,)), (1,))
    f, w = random_certificate(rng, composed)
    wrong = tuple(x + 1 for x in w)
    with pytest.raises(PreconditionError):
        transport_functional(spec, f, wrong)
    with pytest.raises(PreconditionError):
        transport_functional(spec, Functional((0,) * composed.rows),
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
    # plain integer tuples are read as the Functional and w they spell
    assert transport_functional(spec, f.coeffs, list(w)) == want
    for bad in (0.5, True):
        with pytest.raises(UsageError, match="^f must hold integers"):
            transport_functional(spec, (bad,) + f.coeffs[1:], w)
        with pytest.raises(UsageError, match="^w must hold integers"):
            transport_functional(spec, f, (bad,) + w[1:])


def test_spec_json_round_trip():
    rng = random.Random(61)
    for kind in ("one-sum", "two-sum", "three-sum", "delta-sum"):
        spec = random_spec(rng, kind)
        again = SumSpec.from_json_dict(spec.to_json_dict())
        assert again == spec
        assert compose(again).matrix == compose(spec).matrix
