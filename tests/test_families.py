"""families surface: bound functions, exception sweep, extremal generators."""

import random
from fractions import Fraction

import pytest

from tumax.certify import is_prepared, is_totally_unimodular, polytopal_certificate
from tumax.errors import UsageError
from tumax.families import (
    bipartite_extremal,
    ex4_matrix,
    h,
    heller_family,
    is_sporadic,
    sporadic_5x5,
    sporadic_5x10,
    verify_extralemma,
)
from tumax.matrix import IntMatrix

from oracles import det_cofactor, g, is_tu_bruteforce


def test_h_values():
    assert h(5) == 10
    assert h(4) == 6
    assert h(3) == 4
    assert h(7) == 16
    assert g(5) == Fraction(9)
    with pytest.raises(UsageError):
        h(0)


@pytest.mark.parametrize("bad", [2.5, 3.0, True, "3", 0, -1])
def test_h_takes_only_ints(bad):
    """h(2.5) was 3.0 and h(True) was 1: a non-int argument is refused
    with the text of the range check."""
    with pytest.raises(UsageError) as info:
        h(bad)
    assert str(info.value) == "h is defined for integers >= 1"


def test_h_g_relations():
    for x in range(1, 1001):
        assert h(x) <= g(x + 1)
        assert g(x) - Fraction(1, 4) <= h(x)
        if x == 5:
            assert h(x) == g(x) + 1
        elif x % 2 == 1:
            assert h(x) == g(x)
        else:
            assert h(x) == g(x) - Fraction(1, 4)


def test_extralemma_exceptions():
    reports = verify_extralemma(200)
    by_part = {r.part: r for r in reports}
    assert by_part[1].exceptions_found == ()
    assert by_part[2].exceptions_found == ()
    assert by_part[3].exceptions_found == ((3, 1), (3, 3), (5, 1))
    assert by_part[4].exceptions_found == ((2, 2), (2, 4), (4, 2))
    assert all(r.match for r in reports)
    # spot arithmetic behind two of the exceptions
    assert h(3) + h(3) == 8 and h(4) == 6
    assert h(5) + h(3) == 14 and h(6) == 12


def test_extralemma_needs_room():
    with pytest.raises(UsageError):
        verify_extralemma(9)


def test_heller_family_shapes_and_certification():
    assert (heller_family(2).rows, heller_family(2).cols) == (2, 7)
    m3 = heller_family(3)
    assert (m3.rows, m3.cols) == (3, 13)
    assert m3.columns_distinct()
    assert is_totally_unimodular(m3, "minors").is_tu
    for m in range(2, 9):
        fam = heller_family(m)
        assert fam.cols == m * m + m + 1
        assert fam.columns_distinct()
    for m in range(2, 7):
        assert is_totally_unimodular(heller_family(m), "gh").is_tu


def _symmetric_closure(m):
    """(M | -M | 0): m's columns closed under negation, and the origin."""
    neg = IntMatrix(m.rows, m.cols,
                    tuple(tuple(-e for e in row) for row in m.entries))
    return m.hstack(neg).hstack(IntMatrix.zeros(m.rows, 1))


def test_symmetric_closure():
    one = IntMatrix.from_rows([[1]])
    assert _symmetric_closure(one).columns() == [(1,), (-1,), (0,)]
    rng = random.Random(20)
    from helpers import random_tu_matrix

    for _ in range(30):
        m = random_tu_matrix(rng, 3, 3)
        closed = _symmetric_closure(m)
        assert is_totally_unimodular(closed).is_tu
        cols = set(m.columns())
        if (len(cols) == m.cols and (0,) * 3 not in cols
                and not any(tuple(-x for x in c) in cols for c in cols)):
            assert len(set(closed.columns())) == 2 * m.cols + 1


def test_bipartite_extremal_shapes():
    assert (bipartite_extremal(7).rows, bipartite_extremal(7).cols) == (7, 16)
    assert (bipartite_extremal(4).rows, bipartite_extremal(4).cols) == (4, 6)
    for m in list(range(1, 5)) + list(range(6, 10)):
        fam = bipartite_extremal(m)
        assert fam.cols == h(m)
        assert is_prepared(fam)
    with pytest.raises(UsageError, match="sporadic_5x10"):
        bipartite_extremal(5)


def test_sporadic_5x10_properties():
    m = sporadic_5x10()
    assert (m.rows, m.cols) == (5, 10)
    assert m.cols == h(5)
    assert is_prepared(m)
    assert polytopal_certificate(m) == (1, 1, 1, 1, 1)


def test_sporadic_5x10_against_independent_transcription():
    # independent keying: identity block plus the downward circulant of
    # first column (1,-1,1,0,0)
    c = (1, -1, 1, 0, 0)
    rows = [[1 if i == j else 0 for j in range(5)] + [c[(i - j) % 5] for j in range(5)]
            for i in range(5)]
    assert sporadic_5x10() == IntMatrix.from_rows(rows)


def test_sporadic_5x5_against_independent_transcriptions():
    # variant 1: circulant with -1 on the diagonal and +1 one step either side
    rows1 = [[(-1 if j == i else 1 if (j - i) % 5 in (1, 4) else 0)
              for j in range(5)] for i in range(5)]
    assert sporadic_5x5(1) == IntMatrix.from_rows(rows1)
    # variant 2: 4x4 circulant (1,1,0,0) bordered by an all-ones column and row
    rows2 = [[1 if (j - i) % 4 in (0, 1) else 0 for j in range(4)] + [1]
             for i in range(4)]
    rows2.append([1] * 5)
    assert sporadic_5x5(2) == IntMatrix.from_rows(rows2)
    with pytest.raises(UsageError):
        sporadic_5x5(3)


def test_sporadic_5x5_are_tu():
    for variant in (1, 2):
        m = sporadic_5x5(variant)
        assert is_tu_bruteforce(m.to_lists())
        assert is_totally_unimodular(m).is_tu


def test_ex4_matrix():
    m = ex4_matrix()
    assert (m.rows, m.cols) == (4, 10)
    assert all(e in (0, 1) for row in m.entries for e in row)
    assert not is_totally_unimodular(m).is_tu
    from itertools import combinations

    # raw 4x4 minors reach +-3 (oracle-derived), so the matrix is far from TU
    values = {det_cofactor([[m[i, j] for j in cset] for i in range(4)])
              for cset in combinations(range(10), 4)}
    assert values == {-3, -2, -1, 0, 1, 2, 3}
    # yet every affinely reduced determinant of a 5-column subset is in
    # {-1,0,1}: the unimodular-polytope check
    cols = m.columns()
    reduced = set()
    for sub in combinations(range(10), 5):
        base = cols[sub[0]]
        diff = [[cols[k][i] - base[i] for i in range(4)] for k in sub[1:]]
        reduced.add(det_cofactor(diff))
    assert reduced == {-1, 0, 1}


def test_is_sporadic_identity_and_transformed():
    assert is_sporadic(sporadic_5x5(1))
    assert is_sporadic(sporadic_5x5(2))
    assert not is_sporadic(IntMatrix.identity(5))
    # rows 1,2 swapped and column 3 negated
    data = sporadic_5x5(2).to_lists()
    data[1], data[2] = data[2], data[1]
    for i in range(5):
        data[i][3] = -data[i][3]
    assert is_sporadic(IntMatrix.from_rows(data))


def test_is_sporadic_group_invariance():
    rng = random.Random(21)
    for variant in (1, 2):
        base = sporadic_5x5(variant).to_lists()
        for _ in range(25):
            data = [row[:] for row in base]
            rp = list(range(5))
            cp = list(range(5))
            rng.shuffle(rp)
            rng.shuffle(cp)
            data = [[data[rp[i]][cp[j]] for j in range(5)] for i in range(5)]
            for i in range(5):
                if rng.random() < 0.5:
                    data[i] = [-x for x in data[i]]
            for j in range(5):
                if rng.random() < 0.5:
                    for i in range(5):
                        data[i][j] = -data[i][j]
            assert is_sporadic(IntMatrix.from_rows(data))


def test_is_sporadic_shape_check():
    with pytest.raises(UsageError):
        is_sporadic(IntMatrix.identity(4))
    # an entry outside {-1, 0, 1} answers False before any search
    rows = sporadic_5x5(1).to_lists()
    rows[0][0] = 2
    assert not is_sporadic(IntMatrix.from_rows(rows))
