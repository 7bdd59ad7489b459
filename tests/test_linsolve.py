"""linsolve: the row HNF and everything taken from it (inverse, lattice
solves, leftmost bases), checked against Fraction oracles."""

import random

import pytest

from tumax import linsolve
from tumax.errors import UsageError
from tumax.matrix import IntMatrix
from tumax.polytopes import PointSet, _embed

from helpers import OVERFLOW_POLYTOPAL_ROWS, random_unimodular
from oracles import (
    det_cofactor,
    greedy_independent_columns,
    inverse_fractions,
    matmul,
    rank_fractions,
    rational_row_solution,
)


def _random_matrix(rng, rows, cols):
    return IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(cols)]
                                for _ in range(rows)])


def test_row_hnf_transform_and_canonical_pivots():
    rng = random.Random(7)
    for _ in range(300):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 7))
        h, u, pivots = linsolve.row_hnf(m)
        assert matmul(u.entries, m.entries) == h.to_lists()
        assert abs(det_cofactor([list(r) for r in u.entries])) == 1
        assert len(pivots) == rank_fractions(m.to_lists())
        assert list(pivots) == sorted(set(pivots))
        assert list(pivots) == greedy_independent_columns(m.to_lists(), m.cols)
        for k, p in enumerate(pivots):
            assert all(h[k, j] == 0 for j in range(p))
            assert h[k, p] > 0
            assert all(h[i, p] == 0 for i in range(k + 1, h.rows))
            assert all(0 <= h[i, p] < h[k, p] for i in range(k))
        assert all(not any(h.row(i)) for i in range(len(pivots), h.rows))


def test_row_hnf_returns_a_transform_past_64_bits():
    """A 6 x 7 input with entries under 20 whose U has 80-bit entries:
    row_hnf returns it exact instead of refusing its own output."""
    m = IntMatrix.from_rows(OVERFLOW_POLYTOPAL_ROWS)
    h, u, pivots = linsolve.row_hnf(m)
    assert max(abs(x) for row in u.entries for x in row) >= 1 << 63
    assert matmul(u.entries, m.entries) == h.to_lists()
    assert abs(det_cofactor(u.to_lists())) == 1
    assert len(pivots) == rank_fractions(m.to_lists()) == 5


def test_invert_unimodular_matches_fraction_inverse():
    rng = random.Random(8)
    for n in range(1, 7):
        for _ in range(40):
            m = random_unimodular(rng, n, rng.randint(0, 10))
            inv = linsolve.invert_unimodular(m)
            assert inv.to_lists() == inverse_fractions(m.to_lists())
            assert matmul(inv.entries, m.entries) == IntMatrix.identity(
                n).to_lists()
    assert linsolve.invert_unimodular(IntMatrix(0, 0, ())) == IntMatrix(0, 0, ())


def test_invert_unimodular_errors():
    rng = random.Random(9)
    singular = nonintegral = 0
    for _ in range(400):
        n = rng.randint(1, 5)
        m = _random_matrix(rng, n, n)
        oracle = inverse_fractions(m.to_lists())
        if oracle is None:
            with pytest.raises(UsageError, match="^matrix is singular$"):
                linsolve.invert_unimodular(m)
            singular += 1
        elif any(x.denominator != 1 for row in oracle for x in row):
            with pytest.raises(UsageError, match="^matrix is not unimodular; "
                                                 "inverse is not integral$"):
                linsolve.invert_unimodular(m)
            nonintegral += 1
        else:
            assert linsolve.invert_unimodular(m).to_lists() == oracle
    assert singular >= 20 and nonintegral >= 20
    with pytest.raises(UsageError, match="square"):
        linsolve.invert_unimodular(_random_matrix(rng, 2, 3))


def test_solve_left_integer_none_without_rational_solution():
    rng = random.Random(10)
    no_rational = solved = 0
    for _ in range(400):
        r, c = rng.randint(1, 5), rng.randint(1, 7)
        m = _random_matrix(rng, r, c)
        w = [rng.randint(-3, 3) for _ in range(c)]
        if rng.random() < 0.4:
            f = [rng.randint(-2, 2) for _ in range(r)]
            w = [sum(f[i] * m[i, j] for i in range(r)) for j in range(c)]
        f = linsolve.solve_left_integer(m, w)
        if rational_row_solution(m.to_lists(), w) is None:
            assert f is None
            no_rational += 1
        elif f is not None:
            assert [sum(f[i] * m[i, j] for i in range(r))
                    for j in range(c)] == w
            solved += 1
    assert no_rational >= 50 and solved >= 50


@pytest.mark.parametrize("bad", [2.0, 1.5, True])
def test_solve_left_integer_takes_only_int_targets(bad):
    # diag(2, 1): the target (2.0, 1.0) would be solved by (1.0, 1.0)
    m = IntMatrix.from_rows([[2, 0], [0, 1]])
    assert linsolve.solve_left_integer(m, [2, 1]) == (1, 1)
    with pytest.raises(UsageError) as info:
        linsolve.solve_left_integer(m, [bad, 1])
    assert str(info.value) == f"w must hold integers, got {bad!r}"


@pytest.mark.parametrize("bad", [2.0, 1.5, True])
def test_hnf_solver_takes_only_int_targets(bad):
    """One HNF, many targets: each target is read as ints first, so the
    float (2.0, 1.0) is refused, not solved by (1.0, 1.0)."""
    solve = linsolve.hnf_solver(*linsolve.row_hnf(
        IntMatrix.from_rows([[2, 0], [0, 1]])))
    assert solve((2, 1)) == (1, 1)
    with pytest.raises(UsageError) as info:
        solve([bad, 1])
    assert str(info.value) == f"w must hold integers, got {bad!r}"
    with pytest.raises(UsageError, match="w must hold integers"):
        solve((bad, 1, 0))  # the type before the length


def test_leftmost_affine_frame_is_greedy():
    """The frame that lattice_isomorphic reads off the embedding's
    elimination: the leftmost affinely independent points."""
    rng = random.Random(11)
    for _ in range(200):
        d = rng.randint(1, 4)
        pts = list(dict.fromkeys(tuple(rng.randint(-1, 2) for _ in range(d))
                                 for _ in range(rng.randint(1, 8))))
        diffs = [[p[k] - pts[0][k] for p in pts[1:]] for k in range(d)]
        greedy = greedy_independent_columns(diffs, len(pts) - 1)
        assert list(_embed(PointSet(d, tuple(pts)))[1]) == greedy
