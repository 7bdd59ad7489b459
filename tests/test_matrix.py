"""matrix surface: entries, validation, column bookkeeping and the text
format; the determinant and rank kernels on matrix entries, against the
cofactor and Fraction oracles."""

import random
from itertools import combinations

import pytest

from tumax.errors import FormatError, UsageError
from tumax.kernels import det_entries, rank_entries
from tumax.matrix import IntMatrix, int_arg, matrix_arg, parse_matrix_text

from oracles import det_cofactor, rank_fractions


def test_det_identity():
    assert det_entries(IntMatrix.identity(3).entries) == 1


def test_det_2x2_cofactor_case():
    assert det_entries(((1, 1), (1, -1))) == -2 == det_cofactor([[1, 1],
                                                                 [1, -1]])


def test_det_empty_and_single():
    assert det_entries(IntMatrix.from_rows([]).entries) == 1 == det_cofactor([])
    assert det_entries(((-7,),)) == -7


def test_det_matches_cofactor_oracle_randomized():
    rng = random.Random(0)
    for _ in range(1000):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        assert det_entries(rows) == det_cofactor(rows)


def test_det_random_sign_entries_5x5():
    rng = random.Random(1)
    for _ in range(200):
        rows = [[rng.randint(-1, 1) for _ in range(5)] for _ in range(5)]
        assert det_entries(rows) == det_cofactor(rows)


def _parity(perm):
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
              if perm[i] > perm[j])
    return -1 if inv % 2 else 1


def test_det_permutation_parity():
    rng = random.Random(2)
    for _ in range(200):
        n = rng.randint(2, 5)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        det = det_cofactor(rows)
        assert det_entries(rows) == det
        perm = list(range(n))
        rng.shuffle(perm)
        assert det_entries([rows[i] for i in perm]) == _parity(perm) * det
        col_permuted = [[row[j] for j in perm] for row in rows]
        assert det_entries(col_permuted) == _parity(perm) * det


def test_det_minor_rank_are_exact_near_64_bits():
    """Entries near +-2**62 make minors far wider than 64 bits; the
    determinant and rank kernels, on the whole matrix and on a submatrix,
    still agree with the cofactor and Fraction oracles."""
    assert det_entries(((1 << 40, 0), (0, 1 << 40))) == 1 << 80
    rng = random.Random(62)

    def entry():
        if rng.random() < 0.4:
            return rng.randint(-2, 2)
        return rng.choice((-1, 1)) * ((1 << 62) - rng.randint(0, 1 << 20))

    wide = deficient = 0
    for _ in range(300):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[entry() for _ in range(c)] for _ in range(r)]
        if r > 1 and rng.random() < 0.3:
            # a repeated or negated row: rank-deficient, with wide pivots
            rows[-1] = [rng.choice((-1, 1)) * x for x in rows[0]]
        m = IntMatrix.from_rows(rows)
        rank = rank_fractions(rows)
        assert rank_entries(m.entries) == rank, rows
        deficient += rank < r
        k = rng.randint(1, min(r, c))
        ri = sorted(rng.sample(range(r), k))
        ci = sorted(rng.sample(range(c), k))
        want = det_cofactor([[rows[i][j] for j in ci] for i in ri])
        assert det_entries(m.submatrix(ri, ci).entries) == want, (rows, ri, ci)
        wide += abs(want) >= 1 << 63
        if r == c:
            assert det_entries(m.entries) == det_cofactor(rows), rows
    assert wide > 50 and deficient > 40


def test_entry_overflow_at_construction():
    with pytest.raises(UsageError, match="^entry 9223372036854775808 exceeds "
                                         "64-bit range$"):
        IntMatrix.from_rows([[1 << 63]])


def test_minor_single_entry():
    m = IntMatrix.from_rows([[3, 1], [4, 1]])
    assert det_entries(m.submatrix([1], [0]).entries) == 4


def test_minor_full_equals_det():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        m = IntMatrix.from_rows(rows)
        full = m.submatrix(range(n), range(n))
        assert full == m
        assert det_entries(full.entries) == det_cofactor(rows)


def test_minor_usage_errors():
    # the index sets of a minor: in range and strictly increasing
    m = IntMatrix.identity(3)
    with pytest.raises(UsageError, match="row 3 out of range"):
        m.submatrix([0, 3], [0, 1])
    with pytest.raises(UsageError, match="column set must be strictly"):
        m.submatrix([0, 1], [1, 0])
    with pytest.raises(UsageError, match="row set must be strictly"):
        m.submatrix([1, 0], [0, 1])


def test_index_sets_take_only_ints():
    # True and False are no row or column indices, though they equal 1 and 0
    m = IntMatrix.identity(2)
    with pytest.raises(UsageError) as info:
        m.submatrix([True], [0])
    assert str(info.value) == "row set must contain integers, got True"
    with pytest.raises(UsageError) as info:
        m.submatrix([1], [False])
    assert str(info.value) == "column set must contain integers, got False"


@pytest.mark.parametrize("value, low, high, ok", [
    (3, 0, None, True), (0, 0, None, True), (2, 1, 2, True), (-1, -1, 5, True),
    (-1, 0, None, False), (3, 1, 2, False), (True, 0, None, False),
    (False, 0, None, False), (2.5, 0, None, False), (3.0, 0, None, False),
    ("3", 0, None, False), (None, 0, None, False)])
def test_int_arg_takes_only_ints_in_bounds(value, low, high, ok):
    """An int in [low, high] comes back as it is; a bool, a float, a str,
    None or an int out of range raises UsageError with the caller's text."""
    if ok:
        assert int_arg(value, low, "no", high) is value
        return
    with pytest.raises(UsageError) as info:
        int_arg(value, low, "the caller's text", high)
    assert str(info.value) == "the caller's text"


def test_matrix_arg_takes_only_int_matrices():
    m = IntMatrix.identity(2)
    assert matrix_arg(m) is m
    for bad, name in (([[1, 0], [0, 1]], "list"), (m.entries, "tuple"),
                      (None, "NoneType")):
        with pytest.raises(UsageError) as info:
            matrix_arg(bad, "mprime")
        assert str(info.value) == f"mprime must be an IntMatrix, got {name}"


def test_row_and_col_take_int_indices_as_tuples_do():
    m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert (m.row(-2), m.row(1), m.col(-1), m.col(0)) == (
        (1, 2, 3), (4, 5, 6), (3, 6), (1, 4))
    for call, bad, text in (
            (m.row, 2, "row index must be in [-2, 2), got 2"),
            (m.row, True, "row index must be in [-2, 2), got True"),
            (m.col, -4, "column index must be in [-3, 3), got -4"),
            (m.col, 1.0, "column index must be in [-3, 3), got 1.0")):
        with pytest.raises(UsageError) as info:
            call(bad)
        assert str(info.value) == text


def test_rank_zero_and_identity():
    assert rank_entries(IntMatrix.zeros(3, 4).entries) == 0
    assert rank_entries(IntMatrix.identity(5).entries) == 5


def test_rank_matches_fraction_oracle_and_transpose():
    rng = random.Random(4)
    for _ in range(300):
        r = rng.randint(1, 5)
        c = rng.randint(1, 6)
        rows = [[rng.randint(-2, 2) for _ in range(c)] for _ in range(r)]
        m = IntMatrix.from_rows(rows)
        assert rank_entries(m.entries) == rank_fractions(rows)
        assert rank_entries(m.transpose().entries) == rank_fractions(rows)


def test_columns_distinct_basic():
    assert IntMatrix.identity(3).columns_distinct()
    doubled = IntMatrix.identity(2).hstack(IntMatrix.identity(2))
    assert not doubled.columns_distinct()
    rng = random.Random(5)
    for _ in range(300):
        r, c = rng.randint(0, 3), rng.randint(0, 5)
        m = IntMatrix(r, c, tuple(tuple(rng.randint(-1, 1) for _ in range(c))
                                  for _ in range(r)))
        cols = [tuple(row[j] for row in m.entries) for j in range(c)]
        want = all(cols[i] != cols[j] for i, j in combinations(range(c), 2))
        assert m.columns_distinct() == want, m


def test_text_round_trip_byte_identical():
    m = IntMatrix.from_rows([[1, -1, 0], [0, 2, 5]])
    text = m.to_text()
    assert parse_matrix_text(text) == m
    assert parse_matrix_text(text).to_text() == text


def test_text_zero_rows():
    m = parse_matrix_text("0 4\n")
    assert (m.rows, m.cols) == (0, 4)
    assert parse_matrix_text(m.to_text()) == m


def test_empty_columns_keep_the_column_count():
    m = IntMatrix.from_columns([(), ()])
    assert (m.rows, m.cols, m.columns()) == (0, 2, [(), ()])
    assert m.to_text() == "0 2\n"
    assert parse_matrix_text(m.to_text()) == m
    blank = IntMatrix.from_columns([], rows=3)
    assert (blank.rows, blank.cols) == (3, 0)
    assert parse_matrix_text(blank.to_text()) == blank


def test_from_columns_checks_the_row_count():
    # rows, when given, is the length of every column
    with pytest.raises(UsageError, match="length 3, got 2"):
        IntMatrix.from_columns([(1, 2)], rows=3)
    with pytest.raises(UsageError, match="length 2, got 3"):
        IntMatrix.from_columns([(1, 2), (1, 2, 3)])
    with pytest.raises(UsageError):
        IntMatrix.from_columns([(), ()], rows=1)
    assert IntMatrix.from_columns([(1, 2)], rows=2) == IntMatrix.from_rows(
        [[1], [2]])
    assert IntMatrix.from_columns([(), ()], rows=0).cols == 2


def test_from_rows_accepts_only_integers():
    # neither rounded nor truncated: 1.5 and True are not matrix entries
    for bad in (1.5, True, 2.0, "1"):
        with pytest.raises(UsageError, match="integers"):
            IntMatrix.from_rows([[1, 0], [0, bad]])
    assert IntMatrix.from_rows([[1, -1]]).entries == ((1, -1),)


def test_from_columns_accepts_only_integers():
    for bad in (0.9, False, 1.0):
        with pytest.raises(UsageError, match="integers"):
            IntMatrix.from_columns([(1, 0), (bad, 1)])
    assert IntMatrix.from_columns([(0, 1)]).entries == ((0,), (1,))


def test_from_columns_takes_only_sequences_of_columns():
    for cols in ([5], 5):
        with pytest.raises(UsageError) as info:
            IntMatrix.from_columns(cols)
        assert str(info.value) == ("matrix columns must be sequences of "
                                   f"integers, got {cols!r}")


def test_from_columns_without_columns_keeps_the_rows():
    for rows in (0, 1, 3):
        blank = IntMatrix.from_columns([], rows=rows)
        assert (blank.rows, blank.cols, blank.entries) == (rows, 0, ((),) * rows)
    assert IntMatrix.from_columns([]) == IntMatrix(0, 0, ())


def test_text_format_errors_carry_line_numbers():
    with pytest.raises(FormatError):
        parse_matrix_text("")
    with pytest.raises(FormatError) as err:
        parse_matrix_text("2 2\n1 0\n1")
    assert err.value.line == 3
    with pytest.raises(FormatError):
        parse_matrix_text("2 2\n1 0\n0 x")
    with pytest.raises(FormatError):
        parse_matrix_text("1 1\n5\njunk")


def test_submatrix_and_stacking():
    m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert m.submatrix([1], [0, 2]).to_lists() == [[4, 6]]
    assert m.transpose().to_lists() == [[1, 4], [2, 5], [3, 6]]
    v = m.vstack(IntMatrix.from_rows([[7, 8, 9]]))
    assert v.rows == 3 and v.row(2) == (7, 8, 9)


def test_from_rows_takes_only_sequences_of_rows():
    with pytest.raises(UsageError) as info:
        IntMatrix.from_rows([[1], 5])
    assert str(info.value) == ("matrix rows must be sequences of integers, "
                               "got [[1], 5]")
