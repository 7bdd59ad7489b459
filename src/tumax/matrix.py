"""Dense matrices of exact integers: the substrate for every other module.

Matrices are immutable values; all operations return new matrices, so
instances can be shared freely. Entries are validated to fit a signed
64-bit word at construction, and all arithmetic is exact with checked
overflow (see :mod:`tumax.kernels`).
"""

from dataclasses import dataclass

from . import kernels
from .errors import ArithmeticOverflow, FormatError, UsageError

_LIMIT = 1 << 63


def as_index_set(indices, size, what="index"):
    """Validate a strictly increasing, in-range index tuple."""
    idx = tuple(indices)
    for t, i in enumerate(idx):
        if not isinstance(i, int):
            raise UsageError(f"{what} set must contain integers, got {i!r}")
        if i < 0 or i >= size:
            raise UsageError(f"{what} {i} out of range [0, {size})")
        if t > 0 and idx[t - 1] >= i:
            raise UsageError(f"{what} set must be strictly increasing")
    return idx


@dataclass(frozen=True)
class IntMatrix:
    """Immutable row-major integer matrix."""

    rows: int
    cols: int
    entries: tuple  # tuple of row tuples

    @staticmethod
    def from_rows(rows_data):
        rows_data = [tuple(int(e) for e in row) for row in rows_data]
        r = len(rows_data)
        c = len(rows_data[0]) if r else 0
        for row in rows_data:
            if len(row) != c:
                raise UsageError("rows have inconsistent lengths")
            for e in row:
                if e >= _LIMIT or e <= -_LIMIT:
                    raise ArithmeticOverflow(f"entry {e} exceeds 64-bit range")
        return IntMatrix(r, c, tuple(rows_data))

    @staticmethod
    def from_columns(cols_data, rows=None):
        cols_data = [tuple(int(e) for e in col) for col in cols_data]
        if cols_data:
            rows = len(cols_data[0])
            for col in cols_data:
                if len(col) != rows:
                    raise UsageError("columns have inconsistent lengths")
            return IntMatrix.from_rows(
                [[col[i] for col in cols_data] for i in range(rows)])
        if rows is None:
            rows = 0
        return IntMatrix(rows, 0, tuple(() for _ in range(rows)))

    @staticmethod
    def identity(n):
        return IntMatrix.from_rows([[1 if i == j else 0 for j in range(n)]
                                    for i in range(n)])

    @staticmethod
    def zeros(rows, cols):
        return IntMatrix(rows, cols, tuple(tuple(0 for _ in range(cols))
                                           for _ in range(rows)))

    def __getitem__(self, pos):
        i, j = pos
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

    def col(self, j):
        return tuple(r[j] for r in self.entries)

    def columns(self):
        return [self.col(j) for j in range(self.cols)]

    def flat(self):
        return [e for row in self.entries for e in row]

    def transpose(self):
        return IntMatrix(self.cols, self.rows,
                         tuple(self.col(j) for j in range(self.cols)))

    def neg(self):
        return IntMatrix(self.rows, self.cols,
                         tuple(tuple(-e for e in row) for row in self.entries))

    def submatrix(self, row_idx, col_idx):
        ri = as_index_set(row_idx, self.rows, "row")
        ci = as_index_set(col_idx, self.cols, "column")
        return IntMatrix(len(ri), len(ci),
                         tuple(tuple(self.entries[i][j] for j in ci) for i in ri))

    def hstack(self, other):
        if other.rows != self.rows:
            raise UsageError("hstack needs equal row counts")
        return IntMatrix(self.rows, self.cols + other.cols,
                         tuple(self.entries[i] + other.entries[i]
                               for i in range(self.rows)))

    def vstack(self, other):
        if other.cols != self.cols:
            raise UsageError("vstack needs equal column counts")
        return IntMatrix(self.rows + other.rows, self.cols,
                         self.entries + other.entries)

    def matmul(self, other):
        if self.cols != other.rows:
            raise UsageError("inner dimensions must agree")
        rows = []
        for i in range(self.rows):
            ri = self.entries[i]
            rows.append([sum(ri[k] * other.entries[k][j] for k in range(self.cols))
                         for j in range(other.cols)])
        return IntMatrix.from_rows(rows) if rows else IntMatrix(0, other.cols, ())

    def is_square(self):
        return self.rows == self.cols

    def to_lists(self):
        return [list(row) for row in self.entries]

    # -- matrix_core operations -------------------------------------------

    def det(self):
        if not self.is_square():
            raise UsageError("determinant requires a square matrix")
        return kernels.det_entries(self.flat(), self.rows)

    def minor(self, row_idx, col_idx):
        ri = as_index_set(row_idx, self.rows, "row")
        ci = as_index_set(col_idx, self.cols, "column")
        if len(ri) != len(ci):
            raise UsageError("minor needs equally many rows and columns")
        return self.submatrix(ri, ci).det()

    def rank(self):
        return kernels.rank_entries(self.flat(), self.rows, self.cols)

    def first_duplicate_columns(self):
        """Smallest (i, j) with equal columns, or None."""
        seen = {}
        for j in range(self.cols):
            c = self.col(j)
            if c in seen:
                return (seen[c], j)
            seen[c] = j
        return None

    def columns_distinct(self):
        return self.first_duplicate_columns() is None

    # -- text format -------------------------------------------------------

    def to_text(self):
        lines = [f"{self.rows} {self.cols}"]
        lines.extend(" ".join(str(e) for e in row) for row in self.entries)
        return "\n".join(lines) + "\n"


def parse_matrix_text(text):
    """Parse the matrix text format: `rows cols` then one line per row."""
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty input, expected header `rows cols`", line=1)
    header = lines[0].split()
    if len(header) != 2:
        raise FormatError("header must be `rows cols`", line=1)
    try:
        rows, cols = int(header[0]), int(header[1])
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
            data.append([int(p) for p in parts])
        except ValueError:
            raise FormatError("non-integer entry", line=lineno)
    for extra in range(rows + 1, len(lines)):
        if lines[extra].strip():
            raise FormatError("trailing content after matrix", line=extra + 1)
    return IntMatrix.from_rows(data) if rows else IntMatrix(0, cols, ())
