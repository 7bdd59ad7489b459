"""Dense matrices of exact integers: the value type under every other module.

An ``IntMatrix`` holds, validates and rearranges its entries but does no
arithmetic: the exact kernel functions take its rows for determinants and
ranks, and ``linsolve`` runs the eliminations. Matrices are immutable
values, so instances can be shared freely. ``from_rows`` and
``from_columns`` admit only ints that fit a signed 64-bit word, the bound
on outside input. A matrix computed from such input (point differences,
HNFs and their transforms) is built with the plain constructor, which
checks nothing: every computation is exact, so its entries may be wider.
"""

import re

from ._record import Record, set_field
from .errors import FormatError, UsageError

_LIMIT = 1 << 63
_INT_TOKEN = re.compile(r"[+-]?[0-9]+").fullmatch


def int_tokens(tokens):
    """The ints that the strings ``tokens`` spell, each in ASCII
    ``[+-]?[0-9]+``. Any other token, such as ``1_0``, ``1.0``, a
    non-ASCII digit or no str at all, raises UsageError (a ValueError)
    instead of being read as an integer."""
    tokens = list(tokens)
    try:
        if all(map(_INT_TOKEN, tokens)):
            return list(map(int, tokens))
    except TypeError:  # a token that is no str
        pass
    raise UsageError("integer tokens are ASCII [+-]?[0-9]+")


def as_index_set(indices, size, what="index"):
    """Validate a strictly increasing, in-range index tuple."""
    idx = tuple(indices)
    for t, i in enumerate(idx):
        if type(i) is not int:
            raise UsageError(f"{what} set must contain integers, got {i!r}")
        if i < 0 or i >= size:
            raise UsageError(f"{what} {i} out of range [0, {size})")
        if t > 0 and idx[t - 1] >= i:
            raise UsageError(f"{what} set must be strictly increasing")
    return idx


def int_vector(values, name):
    """``values`` as a tuple of ints. Any other entry, such as 1.5 or
    True, or a ``values`` that is no sequence, raises UsageError instead
    of being read as an integer."""
    try:
        vec = tuple(values)
    except TypeError:
        raise UsageError(f"{name} must be a sequence of integers, "
                         f"got {values!r}") from None
    for x in vec:
        if type(x) is not int:
            raise UsageError(f"{name} must hold integers, got {x!r}")
    return vec


def int_arg(value, low, message, high=None):
    """``value`` when it is an int in [low, high] (no upper bound when
    ``high`` is None). Anything else, such as 2.5, True, "3" or an int out
    of range, raises UsageError(message)."""
    if type(value) is int and low <= value and (high is None or value <= high):
        return value
    raise UsageError(message)


def pair_list(values, name):
    """``values`` as a tuple, or UsageError when it is no sequence."""
    try:
        return tuple(values)
    except TypeError:
        raise UsageError(f"{name} must be a sequence of vertex pairs, "
                         f"got {values!r}") from None


def int_pair(values, name):
    """``values`` as a pair of ints, or UsageError."""
    pair = int_vector(values, name)
    if len(pair) != 2:
        raise UsageError(f"{name} must be a pair of vertices, got {pair!r}")
    return pair


def _tuples(data, what):
    """The sequences of ``data`` as a list of tuples, or UsageError."""
    try:
        return [tuple(seq) for seq in data]
    except TypeError:
        raise UsageError(f"matrix {what} must be sequences of integers, "
                         f"got {data!r}") from None


class IntMatrix(Record):
    """Immutable row-major integer matrix."""

    rows: int
    cols: int
    entries: tuple  # tuple of row tuples

    def __init__(self, rows, cols, entries):
        # the hot constructor (about 8 700 matrices per polytopes pass):
        # no generic argument handling
        set_field(self, "rows", rows)
        set_field(self, "cols", cols)
        set_field(self, "entries", entries)

    @staticmethod
    def from_rows(rows_data):
        """The matrix with these rows. Any entry that is not an int, such
        as 1.5 or True, raises UsageError instead of being read as an
        integer."""
        rows_data = _tuples(rows_data, "rows")
        r = len(rows_data)
        c = len(rows_data[0]) if r else 0
        for row in rows_data:
            if len(row) != c:
                raise UsageError("rows have inconsistent lengths")
            for e in row:
                if type(e) is not int:
                    raise UsageError(
                        f"matrix entries must be integers, got {e!r}")
                if e >= _LIMIT or e <= -_LIMIT:
                    raise UsageError(f"entry {e} exceeds 64-bit range")
        return IntMatrix(r, c, tuple(rows_data))

    @staticmethod
    def from_columns(cols_data, rows=None):
        """The matrix with these columns; entries as in ``from_rows``."""
        cols_data = _tuples(cols_data, "columns")
        if rows is None:
            rows = len(cols_data[0]) if cols_data else 0
        for col in cols_data:
            if len(col) != rows:
                raise UsageError(f"every column must have length {rows}, "
                                 f"got {len(col)}")
        if rows and cols_data:
            return IntMatrix.from_rows(
                [[col[i] for col in cols_data] for i in range(rows)])
        # no entries: rows x 0 or 0 x len(cols_data)
        return IntMatrix(rows, len(cols_data), ((),) * rows)

    @staticmethod
    def identity(n):
        n = int_arg(n, 0, f"size must be a nonnegative integer, got {n!r}")
        return IntMatrix(n, n, tuple(tuple(int(i == j) for j in range(n))
                                     for i in range(n)))

    @staticmethod
    def zeros(rows, cols):
        for k in (rows, cols):
            int_arg(k, 0, f"size must be a nonnegative integer, got {k!r}")
        return IntMatrix(rows, cols, ((0,) * cols,) * rows)

    def __getitem__(self, pos):
        i, j = pos
        return self.entries[i][j]

    def row(self, i):
        int_arg(i, -self.rows, f"row index must be in [-{self.rows}, "
                f"{self.rows}), got {i!r}", self.rows - 1)
        return self.entries[i]

    def col(self, j):
        int_arg(j, -self.cols, f"column index must be in [-{self.cols}, "
                f"{self.cols}), got {j!r}", self.cols - 1)
        return tuple(r[j] for r in self.entries)

    def columns(self):
        return list(zip(*self.entries)) if self.rows else [()] * self.cols

    def transpose(self):
        return IntMatrix(self.cols, self.rows, tuple(self.columns()))

    def submatrix(self, row_idx, col_idx):
        ri = as_index_set(row_idx, self.rows, "row")
        ci = as_index_set(col_idx, self.cols, "column")
        return IntMatrix(len(ri), len(ci),
                         tuple(tuple(self.entries[i][j] for j in ci) for i in ri))

    def hstack(self, other):
        matrix_arg(other, "other")
        if other.rows != self.rows:
            raise UsageError("hstack needs equal row counts")
        return IntMatrix(self.rows, self.cols + other.cols,
                         tuple(self.entries[i] + other.entries[i]
                               for i in range(self.rows)))

    def vstack(self, other):
        matrix_arg(other, "other")
        if other.cols != self.cols:
            raise UsageError("vstack needs equal column counts")
        return IntMatrix(self.rows + other.rows, self.cols,
                         self.entries + other.entries)

    def to_lists(self):
        return [list(row) for row in self.entries]

    def columns_distinct(self):
        return len(set(self.columns())) == self.cols

    # -- text format -------------------------------------------------------

    def to_text(self):
        lines = [f"{self.rows} {self.cols}"]
        lines.extend(" ".join(str(e) for e in row) for row in self.entries)
        return "\n".join(lines) + "\n"


def matrix_arg(m, name="m"):
    """``m`` when it is an IntMatrix; anything else, such as a list of
    rows, raises UsageError."""
    if not isinstance(m, IntMatrix):
        raise UsageError(f"{name} must be an IntMatrix, "
                         f"got {type(m).__name__}")
    return m


def parse_matrix_text(text):
    """Parse the matrix text format: `rows cols` then one line per row."""
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty input, expected header `rows cols`", line=1)
    header = lines[0].split()
    if len(header) != 2:
        raise FormatError("header must be `rows cols`", line=1)
    try:
        rows, cols = int_tokens(header)
    except ValueError:
        raise FormatError("header must contain two integers", line=1)
    if rows < 0 or cols < 0:
        raise FormatError("negative dimensions", line=1)
    data = []
    for i in range(rows):
        lineno = i + 2
        if i + 1 >= len(lines):
            raise FormatError(f"expected {rows} rows, found {i}", line=lineno)
        parts = lines[i + 1].split()
        if len(parts) != cols:
            raise FormatError(
                f"expected {cols} entries, found {len(parts)}", line=lineno)
        try:
            data.append(int_tokens(parts))
        except ValueError:
            raise FormatError("non-integer entry", line=lineno)
    for extra in range(rows + 1, len(lines)):
        if lines[extra].strip():
            raise FormatError("trailing content after matrix", line=extra + 1)
    return IntMatrix.from_rows(data) if rows else IntMatrix(0, cols, ())
