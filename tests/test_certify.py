"""certify surface: TU oracles, unimodularity, certificates, preparedness."""

import random
from collections import Counter
from itertools import product
from math import prod

import pytest

from tumax import certify, linsolve
from tumax.certify import (
    apply_functional,
    ghouila_houri_check,
    is_prepared,
    is_totally_unimodular,
    is_unimodular,
    polytopal_certificate,
)
from tumax.errors import BudgetExceeded, PreconditionError, UsageError
from tumax.families import (
    bipartite_extremal,
    ex4_matrix,
    sporadic_5x5,
    sporadic_5x10,
)
from tumax.matrix import IntMatrix
from tumax.polytopes import simplex_product

from helpers import (
    OVERFLOW_POLYTOPAL_ROWS,
    random_network_tu,
    random_sign_matrix,
    random_tu_matrix,
)
from oracles import (
    det_cofactor,
    is_tu_by_minor_table,
    is_unimodular_maximal_minors,
    matmul,
    rank_fractions,
    rational_row_solution,
    violating_order,
)


def test_sporadic_5x10_is_tu_by_both_methods():
    m = sporadic_5x10()
    assert is_totally_unimodular(m, "minor-enumeration").is_tu
    assert ghouila_houri_check(m).is_tu


def test_ex4_is_not_tu():
    v = is_totally_unimodular(ex4_matrix())
    assert not v.is_tu
    rows, cols, minor = v.witness
    assert abs(minor) >= 2
    # the witness is a genuine minor of the input
    m = ex4_matrix()
    assert det_cofactor([[m[i, j] for j in cols] for i in rows]) == minor


def test_small_violation_witness():
    v = is_totally_unimodular(IntMatrix.from_rows([[1, 1], [1, -1]]))
    assert not v.is_tu
    assert v.witness == ((0, 1), (0, 1), -2)


def test_entry_outside_range_gives_1x1_witness():
    for method in ("minor-enumeration", "ghouila-houri"):
        v = is_totally_unimodular(IntMatrix.from_rows([[0, 2], [1, 0]]), method)
        assert not v.is_tu
        assert v.witness == ((0,), (1,), 2)


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


def _flip_one_sign(rng, m):
    """``m`` with the sign of one nonzero entry flipped (if it has one): a
    near miss of a TU matrix, TU or not."""
    data = m.to_lists()
    nonzero = [(i, j) for i in range(m.rows) for j in range(m.cols)
               if data[i][j]]
    if nonzero:
        i, j = rng.choice(nonzero)
        data[i][j] = -data[i][j]
    return IntMatrix.from_rows(data)


def test_gh_matches_the_minor_table_oracle():
    """The bit-parallel signing search against the minor-table oracle,
    which shares no code with it: random sign matrices up to 7 x 9,
    network matrices with one sign flipped, both representations of R10,
    consecutive-ones matrices whose all-ones columns fill the narrowest
    fields, and the empty and one-line shapes; each also transposed, so
    that the tall shapes up to 9 x 7 are decided on their columns."""
    rng = random.Random(59)
    cases = [sporadic_5x5(1), sporadic_5x5(2)]
    for n in range(4):
        cases += [IntMatrix(0, n, ()), IntMatrix(n, 0, ((),) * n)]
    for n in range(1, 8):
        cases += [random_sign_matrix(rng, 1, n), random_sign_matrix(rng, n, 1)]
    for rows in (5, 6):
        intervals = [(i, j) for i in range(rows) for j in range(i, rows)]
        cases.append(IntMatrix.from_columns(
            [tuple(int(i <= r <= j) for r in range(rows))
             for i, j in rng.sample(intervals, 9)] + [(1,) * rows]))
    for _ in range(300):
        cases.append(random_sign_matrix(rng, rng.randint(1, 7),
                                        rng.randint(1, 9)))
    for _ in range(150):
        cases.append(_flip_one_sign(rng, random_tu_matrix(
            rng, rng.randint(2, 7), rng.randint(2, 9))))
    seen = {True: 0, False: 0}
    for m in cases + [m.transpose() for m in cases]:
        expected = is_tu_by_minor_table(m.to_lists())
        assert ghouila_houri_check(m).is_tu == expected, m
        seen[expected] += 1
    assert min(seen.values()) >= 200, seen


def _planted_cycle(rng, rows, cols):
    """A TU matrix of ``rows`` x ``cols`` (both >= 4) with k >= 4 of its
    columns replaced by a signed k-cycle on k of its rows, zero elsewhere.
    The cycle's determinant is +-2 while each of its proper row subsets
    has a signing, so the least violating minor is often of order k."""
    data = random_tu_matrix(rng, rows, cols).to_lists()
    k = rng.randint(4, min(rows, cols))
    rset, cset = rng.sample(range(rows), k), rng.sample(range(cols), k)
    diag = [rng.choice((-1, 1)) for _ in range(k)]
    off = [rng.choice((-1, 1)) for _ in range(k - 1)]
    # det = prod(diag) + (-1)^(k-1) prod(off): make both terms equal
    off.append(prod(diag) * (-1) ** (k - 1) * prod(off))
    for row in data:
        for j in cset:
            row[j] = 0
    for t in range(k):
        data[rset[t]][cset[t]] = diag[t]
        data[rset[t]][cset[(t + 1) % k]] = off[t]
    return IntMatrix.from_rows(data)


def test_gh_walk_matches_the_minor_table_oracle():
    """The subset walk against the minor-table oracle on seeded matrices
    of 0-9 rows and columns: random sign matrices, TU matrices with one
    sign flipped, and planted signed cycles of 4-9 rows. A negative whose
    least violating minor has order 4 or more passes every subset of at
    most three rows, so only the walk can find it; such negatives make
    up a fixed part of the cases."""
    rng = random.Random(61)
    cases = []
    for _ in range(150):
        rows, cols = rng.randint(0, 9), rng.randint(0, 9)
        cases.append(random_sign_matrix(rng, rows, cols) if rows
                     else IntMatrix(0, cols, ()))
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        cases.append(_flip_one_sign(rng, random_tu_matrix(rng, rows, cols)))
        cases += [_planted_cycle(rng, rng.randint(4, 9), rng.randint(4, 9))
                  for _ in range(2)]
    orders = Counter()
    for m in cases:
        order = violating_order(m.to_lists())
        assert ghouila_houri_check(m).is_tu == (order is None), m
        orders["TU" if order is None else min(order, 4)] += 1
    assert orders["TU"] >= 150 and orders[4] >= 150, orders


def test_gh_decides_the_17_row_n_of_delta1_x_delta17():
    """Delta_1 x Delta_17 is unimodular: the N of its homogenized vertex
    matrix has 17 rows on its smaller side, so the walk visits all 2^17
    row subsets."""
    ps = simplex_product(1, 17)
    n = len(ps.points)
    hnf, _, pivots = linsolve.row_hnf(
        IntMatrix(ps.dim + 1, n, ((1,) * n,) + tuple(zip(*ps.points))))
    nblock = hnf.submatrix(range(hnf.rows),
                           [j for j in range(n) if j not in pivots])
    assert min(nblock.rows, nblock.cols) == 17
    assert ghouila_houri_check(nblock).is_tu
    assert is_unimodular(ps.to_matrix().vstack(IntMatrix(1, n, ((1,) * n,))))


def test_gh_reports_the_first_entry_outside_the_signs_at_any_height():
    """Two entries outside the signs, (1, 1) first in row-major order and
    (2, 0) first in column-major order: the witness is the row-major first
    one in the 3 x 3 input, in the tall 5 x 3 and 21 x 3 inputs that are
    decided on their columns, and in a 21 x 22 input past the budget on
    both sides, where it comes before the budget."""
    rows = [[1, 0, 1], [0, -2, 1], [2, 1, 0]]
    for pad_rows, pad_cols in ((0, 0), (2, 0), (18, 0), (18, 19)):
        padded = [row + [0] * pad_cols for row in rows]
        padded += [[0] * (3 + pad_cols)] * pad_rows
        v = ghouila_houri_check(IntMatrix.from_rows(padded))
        assert v == certify.TuVerdict(False, certify.METHOD_GH,
                                      ((1,), (1,), -2))


def test_gh_decides_20_rows_and_raises_past_them():
    """20 rows on the smaller side are decided, as in a 20 x 20 and a
    21 x 20 input; a 21 x 21 input raises, naming its shape."""
    square = [[1, 1] + [0] * 18, [1, -1] + [0] * 18] + [[0] * 20] * 18
    assert not ghouila_houri_check(IntMatrix.from_rows(square)).is_tu
    assert not ghouila_houri_check(
        IntMatrix.from_rows(square + [[0] * 20])).is_tu
    with pytest.raises(BudgetExceeded, match=(
            r"^matrix size 21x21 has 21 rows on its smaller side, more than "
            r"the Ghouila-Houri budget admits \(rows <= 20\)$")):
        ghouila_houri_check(IntMatrix.from_rows(
            [row + [0] for row in square + [[0] * 20]]))


def test_gh_runs_on_the_smaller_side():
    """Ghouila-Houri runs on whichever of m and m^T has fewer rows, in auto
    mode past the minor budget too: a 21 x 1, 21 x 10, 10 x 21 or 20 x 5
    input is decided."""
    for shape in ((21, 1), (21, 10), (20, 5)):
        for m in (IntMatrix.zeros(*shape), IntMatrix.zeros(*shape[::-1])):
            assert is_totally_unimodular(m) == certify.TuVerdict(
                True, certify.METHOD_GH)
    wide = bipartite_extremal(10).submatrix(range(10), range(21))
    near_miss = _flip_one_sign(random.Random(60), wide)
    for m, expected in ((wide, True), (near_miss, False)):
        assert ghouila_houri_check(m).is_tu == expected
        assert ghouila_houri_check(m.transpose()).is_tu == expected


def test_is_unimodular_decides_n_on_its_smaller_side():
    """(I_5 | N) with a 5 x 25 block N: 25 rows on N's larger side, 5 on
    its smaller, where Ghouila-Houri runs."""
    n = random_network_tu(random.Random(62), 5, 25)
    assert is_unimodular(IntMatrix.identity(5).hstack(n))


def test_budget_errors():
    wide = IntMatrix.zeros(4, 20)
    with pytest.raises(BudgetExceeded):
        is_totally_unimodular(wide, "minor-enumeration")
    assert is_totally_unimodular(wide, "ghouila-houri").is_tu
    tall = IntMatrix.zeros(21, 2)
    with pytest.raises(BudgetExceeded):
        is_totally_unimodular(tall, "minor-enumeration")
    assert is_totally_unimodular(tall, "ghouila-houri").is_tu
    square = IntMatrix.zeros(21, 21)
    for method in ("auto", "ghouila-houri"):
        with pytest.raises(BudgetExceeded):
            is_totally_unimodular(square, method)


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
    assert rank_fractions(lifted.to_lists()) == 5
    assert is_unimodular(lifted)
    assert not is_totally_unimodular(lifted).is_tu


def test_tu_full_rank_implies_unimodular():
    rng = random.Random(14)
    checked = 0
    while checked < 40:
        m = random_tu_matrix(rng, 3, 6)
        if rank_fractions(m.to_lists()) != 3:
            continue
        assert is_unimodular(m)
        checked += 1


def _random_unimodular_transform(rng, n):
    mat = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        mat[i] = [a + c * b for a, b in zip(mat[i], mat[j])]
    return mat


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
        full = matmul(_random_unimodular_transform(rng, m), rows)
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


def _scrambled(rng, rows):
    """Rows shuffled and signed, one row added to another, columns
    shuffled: every maximal minor is kept up to sign, and the rows stay
    sparse enough for the cofactor oracle."""
    rows = [[-x for x in row] if rng.random() < 0.5 else row[:]
            for row in rows]
    rng.shuffle(rows)
    i, j = rng.sample(range(len(rows)), 2)
    c = rng.choice((-1, 1))
    rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    perm = list(range(len(rows[0])))
    rng.shuffle(perm)
    return [[row[j] for j in perm] for row in rows]


def test_is_unimodular_matches_maximal_minor_oracle_up_to_7x9_blocks():
    """Blocks N with rows + cols <= 16, the size that auto-mode TU checks
    hand to the minor scan: the scrambled 7 x 16 extremal matrix, the same
    with a column pair whose 2 x 2 minor is -2, and random TU or sign
    blocks up to 7 x 9."""
    rng = random.Random(53)
    extremal = bipartite_extremal(7).to_lists()
    planted = [row[:] for row in extremal]
    # column 0 is e_0 + e_4; column 5 becomes e_0 - e_4
    for i, row in enumerate(planted):
        row[5] = {0: 1, 4: -1}.get(i, 0)
    cases = [(extremal, True), (planted, False)]
    for m, k in ((6, 9), (7, 8), (7, 9)):
        cases.append((IntMatrix.identity(m).hstack(
            random_tu_matrix(rng, m, k)).to_lists(), True))
        cases.append((IntMatrix.identity(m).hstack(
            random_sign_matrix(rng, m, k)).to_lists(), None))
    for rows, expected in cases:
        full = _scrambled(rng, rows)
        want = is_unimodular_maximal_minors(full, len(full[0]))
        assert expected is None or want == expected
        assert is_unimodular(IntMatrix.from_rows(full)) == want, full


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
    assert polytopal_certificate(sporadic_5x10()) == (1, 1, 1, 1, 1)
    assert polytopal_certificate(IntMatrix.identity(4)) == (1,) * 4
    doubled = IntMatrix.from_columns([(1, 2), (2, 4)])
    assert polytopal_certificate(doubled) is None


def test_polytopal_certificate_past_64_bit_transforms():
    # the all-ones row is not even a rational combination of the rows
    rows = [list(r) for r in OVERFLOW_POLYTOPAL_ROWS]
    assert rank_fractions(rows) == 5
    assert rank_fractions(rows + [[1] * 7]) == 6
    assert polytopal_certificate(IntMatrix.from_rows(rows)) is None


def test_w_valued_examples():
    # a w-valued functional for any w other than all-ones is the lattice
    # solve that polytopal_certificate runs
    assert linsolve.solve_left_integer(IntMatrix.identity(3),
                                       (1, 3, 5)) == (1, 3, 5)
    assert linsolve.solve_left_integer(IntMatrix.from_rows([[1, -1]]),
                                       (1, 1)) is None
    assert polytopal_certificate(IntMatrix.from_rows([[1, -1]])) is None


def test_w_valued_round_trip_property():
    # w = f * M lies in the row lattice of M, so the lattice solve finds
    # some f' with f' * M = w, for w = 0 too
    rng = random.Random(15)
    zero_targets = 0
    for _ in range(120):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        m = random_sign_matrix(rng, rows, cols).to_lists()
        f = [rng.randint(-3, 3) for _ in range(rows)]
        w = matmul([f], m)[0]
        solved = linsolve.solve_left_integer(IntMatrix.from_rows(m), w)
        assert solved is not None
        assert matmul([list(solved)], m)[0] == w
        zero_targets += not any(w)
    assert zero_targets > 0


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


@pytest.mark.parametrize("bad", [2.0, 0.5, True])
def test_apply_functional_takes_only_int_functionals(bad):
    m = IntMatrix.from_rows([[2, 0], [0, 1]])
    assert apply_functional([1, 1], m) == (2, 1)
    with pytest.raises(UsageError) as info:
        apply_functional((bad, 1), m)
    assert str(info.value) == f"f must hold integers, got {bad!r}"
