"""Certification of matrix properties: total unimodularity, unimodularity,
polytopality, w-valuedness, preparedness.

Two independent total-unimodularity oracles are provided: exhaustive
minor enumeration (the ordered minor scan ``kernels.tu_violation``) and
the Ghouila-Houri row-signing criterion, written here so that the two
routes share no code path.
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


def _signable(rows, ncols):
    """Is there a +-1 signing of ``rows`` with all column sums in {-1,0,1}?"""
    k = len(rows)
    suffix = [[0] * ncols for _ in range(k + 1)]
    for t in range(k - 1, -1, -1):
        for j in range(ncols):
            suffix[t][j] = suffix[t + 1][j] + abs(rows[t][j])

    def rec(t, sums):
        if t == k:
            return True
        # sign symmetry: the first row may be fixed to +1
        signs = (1,) if t == 0 else (1, -1)
        for s in signs:
            nxt = [a + s * b for a, b in zip(sums, rows[t])]
            if all(-1 - r <= v <= 1 + r for v, r in zip(nxt, suffix[t + 1])):
                if rec(t + 1, nxt):
                    return True
        return False

    return rec(0, [0] * ncols)


def ghouila_houri_check(m):
    """TU verdict by the row-signing criterion.

    Every subset of rows must admit a +-1 signing whose signed column
    sums stay in {-1,0,1}. Entries outside {-1,0,1} short-circuit to a
    1x1 witness; a failing subset yields a witness-free negative verdict.
    """
    for i in range(m.rows):
        for j in range(m.cols):
            e = m.entries[i][j]
            if e < -1 or e > 1:
                return TuVerdict(False, METHOD_GH, MinorWitness((i,), (j,), e))
    if m.rows > GH_ROW_BUDGET:
        raise BudgetExceeded(
            f"Ghouila-Houri admits at most {GH_ROW_BUDGET} rows, got {m.rows}")
    for size in range(2, m.rows + 1):
        for subset in combinations(range(m.rows), size):
            if not _signable([m.entries[i] for i in subset], m.cols):
                return TuVerdict(False, METHOD_GH)
    return TuVerdict(True, METHOD_GH)


def is_unimodular(m):
    """All order-m minors in {-1,0,1}; requires full row rank.

    The row HNF U * M = H has the leftmost basis B of M on its pivot
    columns, with |det B| the product of the pivots. When every pivot is 1,
    H = B^-1 M is the identity on the pivot columns and N on the others,
    and each order-m minor of M is +-det B times a minor of N, so M is
    unimodular exactly when N is TU.

    N (or N^T, whichever has fewer rows) is decided by Ghouila-Houri,
    which takes a few ms where the minor scan of a 7x9 N takes over
    100 ms; only a bool is returned, so no witness is lost. Past
    ``GH_ROW_BUDGET`` rows it raises the ``BudgetExceeded`` of
    ``is_totally_unimodular`` in auto mode, before reading any entry.
    """
    hnf, _, pivots = linsolve.row_hnf(m)
    if len(pivots) != m.rows:
        raise PreconditionError(
            f"is_unimodular requires full row rank ({len(pivots)} < {m.rows})")
    return _hnf_is_unimodular(hnf, pivots)


def _hnf_is_unimodular(hnf, pivots):
    """``is_unimodular(m)`` from ``row_hnf(m)`` = (hnf, _, pivots), for m
    of full row rank."""
    if any(hnf.entries[k][p] != 1 for k, p in enumerate(pivots)):
        return False
    n = hnf.submatrix(range(hnf.rows),
                      [j for j in range(hnf.cols) if j not in pivots])
    if n.rows > n.cols:
        n = n.transpose()
    if n.rows > GH_ROW_BUDGET:
        raise _over_both_budgets(n)
    return ghouila_houri_check(n).is_tu


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
    """Polytopal TU matrix with pairwise distinct columns."""
    if not m.columns_distinct():
        return False
    if polytopal_certificate(m) is None:
        return False
    return is_totally_unimodular(m).is_tu
