"""certify surface: TU oracles, unimodularity, certificates, preparedness."""

import random
from itertools import product

import pytest

from tumax import certify
from tumax.certify import (
    Functional,
    ghouila_houri_check,
    is_prepared,
    is_totally_unimodular,
    is_unimodular,
    polytopal_certificate,
    w_valued_certificate,
)
from tumax.errors import BudgetExceeded, PreconditionError
from tumax.families import ex4_matrix, sporadic_5x10
from tumax.matrix import IntMatrix

from helpers import random_network_tu, random_sign_matrix, random_tu_matrix
from oracles import (
    is_unimodular_maximal_minors,
    rank_fractions,
    rational_row_solution,
)


def test_sporadic_5x10_is_tu_by_both_methods():
    m = sporadic_5x10()
    assert is_totally_unimodular(m, "minor-enumeration").is_tu
    assert ghouila_houri_check(m).is_tu


def test_ex4_is_not_tu():
    v = is_totally_unimodular(ex4_matrix())
    assert not v.is_tu
    assert abs(v.witness.value) >= 2
    # the witness is a genuine minor of the input
    m = ex4_matrix()
    assert m.minor(v.witness.rows, v.witness.cols) == v.witness.value


def test_small_violation_witness():
    v = is_totally_unimodular(IntMatrix.from_rows([[1, 1], [1, -1]]))
    assert not v.is_tu
    assert v.witness.value == -2
    assert v.witness.rows == (0, 1) and v.witness.cols == (0, 1)


def test_entry_outside_range_gives_1x1_witness():
    for method in ("minor-enumeration", "ghouila-houri"):
        v = is_totally_unimodular(IntMatrix.from_rows([[0, 2], [1, 0]]), method)
        assert not v.is_tu
        assert v.witness == certify.MinorWitness((0,), (1,), 2)


def test_gh_identity_and_small_negative():
    for m in range(1, 9):
        assert ghouila_houri_check(IntMatrix.identity(m)).is_tu
    v = ghouila_houri_check(IntMatrix.from_rows([[1, 1], [1, -1]]))
    assert not v.is_tu and v.witness is None


def test_gh_on_digraph_incidence():
    rng = random.Random(10)
    for _ in range(50):
        rows, cols = rng.randint(2, 5), rng.randint(1, 6)
        data = [[0] * cols for _ in range(rows)]
        for j in range(cols):
            i1, i2 = rng.sample(range(rows), 2)
            data[i1][j] = 1
            data[i2][j] = -1
        m = IntMatrix.from_rows(data)
        assert ghouila_houri_check(m).is_tu
        assert is_totally_unimodular(m, "minors").is_tu


def test_oracle_agreement_exhaustive_2x2_and_2x3():
    for shape in ((2, 2), (2, 3)):
        rows, cols = shape
        for entries in product((-1, 0, 1), repeat=rows * cols):
            m = IntMatrix.from_rows(
                [entries[i * cols:(i + 1) * cols] for i in range(rows)])
            assert (is_totally_unimodular(m, "minors").is_tu
                    == ghouila_houri_check(m).is_tu)


def test_oracle_agreement_random_5x8():
    rng = random.Random(11)
    for _ in range(150):
        m = random_sign_matrix(rng, 5, 8)
        assert (is_totally_unimodular(m, "minors").is_tu
                == ghouila_houri_check(m).is_tu)
    for _ in range(50):
        m = random_tu_matrix(rng, 5, 8)
        assert is_totally_unimodular(m, "minors").is_tu
        assert ghouila_houri_check(m).is_tu


def test_budget_errors():
    wide = IntMatrix.zeros(4, 20)
    with pytest.raises(BudgetExceeded):
        is_totally_unimodular(wide, "minor-enumeration")
    assert is_totally_unimodular(wide, "ghouila-houri").is_tu
    tall = IntMatrix.zeros(21, 2)
    with pytest.raises(BudgetExceeded):
        is_totally_unimodular(tall, "ghouila-houri")
    with pytest.raises(BudgetExceeded):
        is_totally_unimodular(tall)  # auto finds no admissible method


def test_identity_with_block_iff_block_quick():
    rng = random.Random(12)
    for _ in range(100):
        rows, cols = rng.randint(2, 4), rng.randint(2, 4)
        b = (random_tu_matrix(rng, rows, cols) if rng.random() < 0.4
             else random_sign_matrix(rng, rows, cols))
        with_id = IntMatrix.identity(rows).hstack(b)
        assert (is_totally_unimodular(with_id).is_tu
                == is_totally_unimodular(b).is_tu)


def test_tu_invariant_under_column_negation_and_permutation():
    rng = random.Random(13)
    for _ in range(80):
        m = (random_tu_matrix(rng, 3, 4) if rng.random() < 0.5
             else random_sign_matrix(rng, 3, 4))
        verdict = is_totally_unimodular(m).is_tu
        cols = m.columns()
        rng.shuffle(cols)
        cols = [tuple(-x for x in c) if rng.random() < 0.5 else c for c in cols]
        m2 = IntMatrix.from_columns(cols, rows=3)
        assert is_totally_unimodular(m2).is_tu == verdict


def test_is_unimodular_examples():
    assert is_unimodular(sporadic_5x10())
    with pytest.raises(PreconditionError):
        is_unimodular(IntMatrix.zeros(2, 3))
    assert not is_unimodular(IntMatrix.from_rows([[2]]))
    # lifting the non-TU example to height 1 gives a unimodular matrix
    lifted = ex4_matrix().vstack(IntMatrix.from_rows([[1] * 10]))
    assert lifted.rank() == 5
    assert is_unimodular(lifted)
    assert not is_totally_unimodular(lifted).is_tu


def test_tu_full_rank_implies_unimodular():
    rng = random.Random(14)
    checked = 0
    while checked < 40:
        m = random_tu_matrix(rng, 3, 6)
        if m.rank() != 3:
            continue
        assert is_unimodular(m)
        checked += 1


def _random_unimodular_transform(rng, n):
    mat = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        mat[i] = [a + c * b for a, b in zip(mat[i], mat[j])]
    return IntMatrix.from_rows(mat)


def test_is_unimodular_matches_maximal_minor_oracle():
    """R (I | N) P with random sign N; one row doubled in some cases, which
    makes every pivot product of the leftmost basis at least 2."""
    rng = random.Random(47)
    seen = {"pivot>1": 0, "basis ok, N not TU": 0, "unimodular": 0,
            "N taller than wide": 0, "square": 0}
    for _ in range(120):
        m = rng.randint(1, 5)
        k = rng.randint(0, 5)
        ident_n = IntMatrix.identity(m).hstack(random_sign_matrix(rng, m, k))
        rows = ident_n.to_lists()
        doubled = rng.random() < 0.2
        if doubled:
            i = rng.randrange(m)
            rows[i] = [2 * x for x in rows[i]]
        full = _random_unimodular_transform(rng, m).matmul(
            IntMatrix.from_rows(rows)).to_lists()
        perm = list(range(m + k))
        rng.shuffle(perm)
        full = [[row[j] for j in perm] for row in full]
        expected = is_unimodular_maximal_minors(full, m + k)
        assert is_unimodular(IntMatrix.from_rows(full)) == expected, full
        if doubled:
            seen["pivot>1"] += 1
            assert not expected
        elif not expected:
            seen["basis ok, N not TU"] += 1
        else:
            seen["unimodular"] += 1
        seen["N taller than wide"] += 0 < k < m
        seen["square"] += k == 0
    assert all(seen.values()), seen
    for n in (0, 3, 20):
        assert is_unimodular(IntMatrix(0, n, ()))
        assert is_unimodular_maximal_minors([], n)
    # (I | TU) is unimodular; C(30, 12) = 86 493 225 order-12 minors are
    # beyond the oracle, the (I | N) form leaves a 12 x 18 TU check
    network = random_network_tu(random.Random(49), 12, 18)
    assert is_unimodular(IntMatrix.identity(12).hstack(network))


def test_is_unimodular_random_integer_matrices():
    rng = random.Random(48)
    for _ in range(150):
        m = rng.randint(1, 4)
        n = rng.randint(m, 7)
        rows = [[rng.choice((-2, -1, 0, 0, 1, 1, 2)) for _ in range(n)]
                for _ in range(m)]
        if rank_fractions(rows) < m:
            with pytest.raises(PreconditionError):
                is_unimodular(IntMatrix.from_rows(rows))
            continue
        assert (is_unimodular(IntMatrix.from_rows(rows))
                == is_unimodular_maximal_minors(rows, n)), rows


def test_polytopal_certificate_examples():
    assert polytopal_certificate(sporadic_5x10()) == Functional((1, 1, 1, 1, 1))
    assert polytopal_certificate(IntMatrix.identity(4)) == Functional((1,) * 4)
    doubled = IntMatrix.from_columns([(1, 2), (2, 4)])
    assert polytopal_certificate(doubled) is None


def test_w_valued_examples():
    assert w_valued_certificate(IntMatrix.identity(3), (1, 3, 5)).coeffs == (1, 3, 5)
    assert w_valued_certificate(IntMatrix.from_rows([[1, -1]]), (1, 1)) is None


def test_w_valued_round_trip_property():
    rng = random.Random(15)
    for _ in range(120):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        m = random_sign_matrix(rng, rows, cols)
        f = [rng.randint(-3, 3) for _ in range(rows)]
        w = Functional(tuple(f)).apply(m)
        cert = w_valued_certificate(m, w)
        if any(w):
            assert cert is not None
            assert cert.apply(m) == w
        elif cert is not None:
            assert not cert.is_zero()
            assert cert.apply(m) == w


def test_w_valued_zero_target_needs_kernel():
    # full-row-rank matrix: only f = 0 solves f*M = 0, so no certificate
    assert w_valued_certificate(IntMatrix.identity(2), (0, 0)) is None
    # rank-deficient: a nonzero kernel functional exists
    m = IntMatrix.from_rows([[1, 0], [1, 0]])
    cert = w_valued_certificate(m, (0, 0))
    assert cert is not None and not cert.is_zero()
    assert cert.apply(m) == (0, 0)


def test_polytopal_iff_rational_hyperplane_on_tu_instances():
    rng = random.Random(16)
    for _ in range(100):
        m = random_tu_matrix(rng, rng.randint(2, 4), rng.randint(1, 5))
        integral = polytopal_certificate(m) is not None
        rational = rational_row_solution(m.to_lists(), [1] * m.cols) is not None
        assert integral == rational


def test_is_prepared():
    assert is_prepared(sporadic_5x10())
    assert not is_prepared(ex4_matrix())  # not TU
    assert not is_prepared(IntMatrix.identity(2).hstack(IntMatrix.identity(2)))


def test_verdict_json_shape():
    d = is_totally_unimodular(IntMatrix.from_rows([[1, 1], [1, -1]])).to_json_dict()
    assert d == {"is_tu": False, "method": "minor-enumeration",
                 "witness": {"rows": [0, 1], "cols": [0, 1], "minor": -2}}
    d = ghouila_houri_check(IntMatrix.identity(2)).to_json_dict()
    assert d == {"is_tu": True, "method": "ghouila-houri", "witness": None}
