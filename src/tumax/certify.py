"""Certification of matrix properties: total unimodularity, unimodularity,
polytopality, w-valuedness, preparedness.

Two independent total-unimodularity oracles are provided: exhaustive
minor enumeration (the ordered minor scan ``kernels.tu_violation``) and
the Ghouila-Houri row-signing criterion, written here so that the two
routes share no code path. ``is_totally_unimodular`` returns a verdict
with the scan's first witness. ``tu_holds`` returns only the bool and
never runs the scan; preparedness, unimodularity (and through it
``polytopes.is_unimodular_polytope``) and the factor checks of ``sums``
take it.
"""

from itertools import combinations
from typing import Optional

from . import kernels, linsolve
from ._record import Record
from .errors import BudgetExceeded, PreconditionError, UsageError
from .matrix import int_vector

MINOR_SIZE_BUDGET = 16  # rows + cols admitted to full minor enumeration
GH_ROW_BUDGET = 20  # row count admitted to the 2^m subset enumeration

METHOD_MINORS = "minor-enumeration"
METHOD_GH = "ghouila-houri"


class Functional(Record):
    """Integer row covector; evaluates matrices column-wise."""

    coeffs: tuple

    def __len__(self):
        return len(self.coeffs)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def evaluate(self, column):
        if len(column) != len(self.coeffs):
            raise UsageError("functional/column length mismatch")
        return sum(c * x for c, x in zip(self.coeffs, column))

    def apply(self, m):
        """f * M as a tuple of per-column values."""
        if m.rows != len(self.coeffs):
            raise UsageError("functional length must equal the row count")
        return tuple(self.evaluate(m.col(j)) for j in range(m.cols))


class MinorWitness(Record):
    rows: tuple
    cols: tuple
    value: int


class TuVerdict(Record):
    is_tu: bool
    method: str
    witness: Optional[MinorWitness] = None

    def to_json_dict(self):
        w = None
        if self.witness is not None:
            w = {"rows": list(self.witness.rows),
                 "cols": list(self.witness.cols),
                 "minor": self.witness.value}
        return {"is_tu": self.is_tu, "method": self.method, "witness": w}


def _normalize_method(method):
    aliases = {
        "auto": "auto",
        METHOD_MINORS: METHOD_MINORS,
        "minors": METHOD_MINORS,
        METHOD_GH: METHOD_GH,
        "gh": METHOD_GH,
    }
    if method not in aliases:
        raise UsageError(f"unknown TU method {method!r}")
    return aliases[method]


def is_totally_unimodular(m, method="auto"):
    """TU verdict with a violating minor witness when one exists.

    Minor enumeration scans ascending minor orders and reports the first
    violation (lexicographically least index sets), so witnesses are
    deterministic. The Ghouila-Houri method reports no minor witness.
    """
    method = _normalize_method(method)
    if method == "auto":
        if m.rows + m.cols <= MINOR_SIZE_BUDGET:
            method = METHOD_MINORS
        elif m.rows <= GH_ROW_BUDGET:
            method = METHOD_GH
        else:
            raise _over_both_budgets(m)
    if method == METHOD_GH:
        return ghouila_houri_check(m)
    if m.rows + m.cols > MINOR_SIZE_BUDGET:
        raise BudgetExceeded(
            f"minor enumeration admits rows+cols <= {MINOR_SIZE_BUDGET}, got "
            f"{m.rows}+{m.cols}; try method='ghouila-houri'")
    hit = kernels.tu_violation(m.entries)
    if hit is None:
        return TuVerdict(True, METHOD_MINORS)
    rows, cols, value = hit
    return TuVerdict(False, METHOD_MINORS,
                     MinorWitness(tuple(rows), tuple(cols), value))


def _over_both_budgets(m):
    return BudgetExceeded(
        f"matrix size {m.rows}x{m.cols} exceeds both the minor budget "
        f"(rows+cols <= {MINOR_SIZE_BUDGET}) and the Ghouila-Houri "
        f"budget (rows <= {GH_ROW_BUDGET})")


def ghouila_houri_check(m):
    """TU verdict by the row-signing criterion.

    Every subset of rows must admit a +-1 signing whose signed column
    sums stay in {-1,0,1}. Entries outside {-1,0,1} short-circuit to a
    1x1 witness (the first in row-major order); a failing subset yields a
    witness-free negative verdict. Subsets are tried by size, then in
    lexicographic order, and each signing search fixes its first row to
    +1, which loses nothing since negating a signing keeps its sums.

    The search decides every column at once. With s_j the signed sum of
    the rows placed so far and r_j what is left of column j (the sum of
    |a_ij| over the rows still to place), a signing can complete only
    while |s_j| <= 1 + r_j, and at the last row this is the criterion
    itself. Placing a row changes s_j - r_j by a_ij + |a_ij| under sign
    +1 and by |a_ij| - a_ij under -1, so both slacks s_j - r_j and
    -s_j - r_j only grow: by twice the row's positive or negative part.
    One int holds both slacks of every column, each in a w-bit field
    biased by T - 2 (T the field's top bit), so a field reaches T exactly
    when its slack reaches 2. A step is one addition and one masked test
    of the top bits.
    """
    width = (m.rows + 2).bit_length() + 1  # T = 2**(width-1) > rows + 2
    top_bit = 1 << (width - 1)
    # fields 0..cols-1 hold s_j - r_j, fields cols..2*cols-1 hold -s_j - r_j
    shift = m.cols * width
    steps, left = [], []  # per row: its (+1, -1) steps, and its r_j in both
    for i, row in enumerate(m.entries):
        plus = minus = 0
        for j, e in enumerate(row):
            if e == 1:
                plus |= 1 << (j * width)
            elif e == -1:
                minus |= 1 << (j * width)
            elif e:
                return TuVerdict(False, METHOD_GH, MinorWitness((i,), (j,), e))
        steps.append((2 * (plus + (minus << shift)),
                      2 * (minus + (plus << shift))))
        left.append((plus + minus) * (1 + (1 << shift)))
    if m.rows > GH_ROW_BUDGET:
        raise BudgetExceeded(
            f"Ghouila-Houri admits at most {GH_ROW_BUDGET} rows, got {m.rows}")
    ones = sum(1 << (f * width) for f in range(2 * m.cols))
    top = top_bit * ones
    base = (top_bit - 2) * ones

    def signable(subset):
        k = len(subset)

        def extend(t, sums):
            if t == k:
                return True
            for step in steps[subset[t]]:
                nxt = sums + step
                if not nxt & top and extend(t + 1, nxt):
                    return True
            return False

        # the slacks start at -r_j, the first row is signed +1
        first = base - sum(left[i] for i in subset) + steps[subset[0]][0]
        return not first & top and extend(1, first)

    for size in range(2, m.rows + 1):
        for subset in combinations(range(m.rows), size):
            if not signable(subset):
                return TuVerdict(False, METHOD_GH)
    return TuVerdict(True, METHOD_GH)


def tu_holds(m):
    """``is_totally_unimodular(m).is_tu`` for callers that need no witness.

    It raises the ``BudgetExceeded`` of ``is_totally_unimodular`` in auto
    mode, before reading any entry, and otherwise decides by Ghouila-Houri
    on whichever of m and m^T has fewer rows. It never runs the ordered
    minor scan, which exists to find the first witness.
    """
    if m.rows + m.cols > MINOR_SIZE_BUDGET and m.rows > GH_ROW_BUDGET:
        raise _over_both_budgets(m)
    if m.cols < m.rows:
        m = m.transpose()
    return ghouila_houri_check(m).is_tu


def is_unimodular(m):
    """All order-m minors in {-1,0,1}; requires full row rank.

    The row HNF U * M = H has the leftmost basis B of M on its pivot
    columns, with |det B| the product of the pivots. When every pivot is 1,
    H = B^-1 M is the identity on the pivot columns and N on the others,
    and each order-m minor of M is +-det B times a minor of N, so M is
    unimodular exactly when N is TU.

    N is decided by ``tu_holds``, that is by Ghouila-Houri on N or N^T,
    whichever has fewer rows; only a bool is returned, so no witness is
    lost. When that smaller side has more than ``GH_ROW_BUDGET`` rows it
    raises ``BudgetExceeded``, naming the shape of m, whatever the entries
    of N.
    """
    hnf, _, pivots = linsolve.row_hnf(m)
    if len(pivots) != m.rows:
        raise PreconditionError(
            f"is_unimodular requires full row rank ({len(pivots)} < {m.rows})")
    return _hnf_is_unimodular(hnf, pivots, f"matrix size {m.rows}x{m.cols}")


def _hnf_is_unimodular(hnf, pivots, given):
    """``is_unimodular(m)`` from ``row_hnf(m)`` = (hnf, _, pivots), for m
    of full row rank; ``given`` names the caller's input in the text of
    the ``BudgetExceeded`` raised past the Ghouila-Houri budget."""
    if any(hnf.entries[k][p] != 1 for k, p in enumerate(pivots)):
        return False
    n = hnf.submatrix(range(hnf.rows),
                      [j for j in range(hnf.cols) if j not in pivots])
    if n.rows > n.cols:
        n = n.transpose()
    if n.rows > GH_ROW_BUDGET:
        raise BudgetExceeded(
            f"{given}: its non-pivot block N has {n.rows} rows on its "
            f"smaller side, more than the Ghouila-Houri budget admits "
            f"(rows <= {GH_ROW_BUDGET})")
    return tu_holds(n)


def w_valued_certificate(m, w):
    """Nonzero integral f with f * M = w, or None.

    The Hermite-normal-form lattice solve decides integral solvability
    directly (a system with no rational solution has no integral one
    either). The returned certificate is the canonical one (kernel-row
    coefficients zero), re-verified before returning.
    """
    w = int_vector(w, "w")
    if len(w) != m.cols:
        raise UsageError("w length must equal the column count")
    f = linsolve.solve_left_integer(m, w)
    if f is None:
        return None
    if all(c == 0 for c in f):
        kv = linsolve.left_kernel_vector(m)
        if kv is None:
            return None
        f = kv
    cert = Functional(f)
    if cert.apply(m) != w:
        raise AssertionError("certificate failed re-verification")
    return cert


def polytopal_certificate(m):
    """Integral f evaluating to 1 on every column, or None."""
    if m.cols == 0:
        # vacuous: any functional works; pick a canonical nonzero one
        return Functional(tuple([1] + [0] * (m.rows - 1))) if m.rows else None
    return w_valued_certificate(m, (1,) * m.cols)


def is_prepared(m):
    """Polytopal TU matrix with pairwise distinct columns.

    TU is decided by ``tu_holds``, so past both TU budgets this raises the
    ``BudgetExceeded`` of ``check tu`` in auto mode.
    """
    if not m.columns_distinct():
        return False
    if polytopal_certificate(m) is None:
        return False
    return tu_holds(m)
