"""Certification of matrix properties: total unimodularity, unimodularity,
polytopality, preparedness.

Two independent total-unimodularity oracles are provided: exhaustive
minor enumeration (the ordered minor scan ``kernels.tu_violation``) and
the Ghouila-Houri row-signing criterion, written here so that the two
routes share no code path. ``is_totally_unimodular`` returns a verdict
with the scan's first witness. Callers that need only the bool
(preparedness, unimodularity and through it
``polytopes.is_unimodular_polytope``, the factor checks of ``sums``) take
``ghouila_houri_check``, which never runs the scan. It is the one place
that orients a matrix and tests ``GH_ROW_BUDGET``.

Certificates and witnesses are plain int data: a polytopality
certificate is the tuple f with f * M = 1 on every column, and a
verdict's witness is the minor ``(rows, cols, minor)``.
"""

from itertools import combinations
from typing import Optional

from . import kernels, linsolve
from ._record import Record
from .errors import BudgetExceeded, PreconditionError, UsageError
from .matrix import int_vector, matrix_arg

MINOR_SIZE_BUDGET = 16  # rows + cols admitted to full minor enumeration
GH_ROW_BUDGET = 20  # row count admitted to the 2^m subset enumeration

METHOD_MINORS = "minor-enumeration"
METHOD_GH = "ghouila-houri"


def apply_functional(f, m):
    """f * M as a tuple of per-column values, for an int sequence f; any
    other entry, such as 0.5 or True, raises UsageError."""
    f, m = int_vector(f, "f"), matrix_arg(m)
    if m.rows != len(f):
        raise UsageError("functional length must equal the row count")
    return tuple(sum(c * x for c, x in zip(f, col)) for col in m.columns())


class TuVerdict(Record):
    is_tu: bool
    method: str
    witness: Optional[tuple] = None  # (rows, cols, minor)

    def to_json_dict(self):
        w = None
        if self.witness is not None:
            rows, cols, minor = self.witness
            w = {"rows": list(rows), "cols": list(cols), "minor": minor}
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
    matrix_arg(m)
    if method == "auto":
        method = (METHOD_MINORS if m.rows + m.cols <= MINOR_SIZE_BUDGET
                  else METHOD_GH)
    if method == METHOD_GH:
        return ghouila_houri_check(m)
    if m.rows + m.cols > MINOR_SIZE_BUDGET:
        raise BudgetExceeded(
            f"minor enumeration admits rows+cols <= {MINOR_SIZE_BUDGET}, got "
            f"{m.rows}+{m.cols}; try method='ghouila-houri'")
    hit = kernels.tu_violation(m.entries)
    if hit is None:
        return TuVerdict(True, METHOD_MINORS)
    return TuVerdict(False, METHOD_MINORS, hit)


def _past_gh_budget(subject, rows):
    return BudgetExceeded(
        f"{subject} {rows} rows on its smaller side, more than the "
        f"Ghouila-Houri budget admits (rows <= {GH_ROW_BUDGET})")


def ghouila_houri_check(m):
    """TU verdict by the row-signing criterion.

    Every subset of rows must admit a +-1 signing whose signed column
    sums stay in {-1,0,1}. Entries outside {-1,0,1} short-circuit to a
    1x1 witness (the first in row-major order of m as given, at any
    size); a failing subset yields a witness-free negative verdict. TU is
    closed under transposition, so the criterion runs on whichever of m
    and m^T has fewer rows, and raises ``BudgetExceeded``, naming the
    shape of m, when that side has more than ``GH_ROW_BUDGET`` rows.

    The subsets of two rows go first, then those of three, each in
    lexicographic order, so that a small failing subset ends the check
    at once. A pair tries the two signs of its second row, its first
    signed +1; a triple runs the signing search. Then a depth-first walk
    visits every subset S + {i}, i past the last row of S, from the
    signing found for S: it tries row i signed +1, then -1, and runs the
    signing search on S + {i} only when both take a column sum out of
    {-1,0,1}. The walk holds one signing per level, so its memory stays
    linear in the row count. Each signing search fixes its first row to
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
    of the top bits. A complete signing of S has r_j = 0, so its fields
    hold s_j and -s_j, and the walk's step for row i is the search's step
    less the row's r_j.
    """
    matrix_arg(m)
    for i, row in enumerate(m.entries):
        for j, e in enumerate(row):
            if e not in (-1, 0, 1):
                return TuVerdict(False, METHOD_GH, ((i,), (j,), e))
    given = f"matrix size {m.rows}x{m.cols} has"
    if m.cols < m.rows:
        m = m.transpose()
    if m.rows > GH_ROW_BUDGET:
        raise _past_gh_budget(given, m.rows)
    width = (m.rows + 2).bit_length() + 1  # T = 2**(width-1) > rows + 2
    top_bit = 1 << (width - 1)
    # fields 0..cols-1 hold s_j - r_j, fields cols..2*cols-1 hold -s_j - r_j
    shift = m.cols * width
    steps, left = [], []  # per row: its (+1, -1) steps, and its r_j in both
    for row in m.entries:
        plus = sum(1 << (j * width) for j, e in enumerate(row) if e == 1)
        minus = sum(1 << (j * width) for j, e in enumerate(row) if e == -1)
        steps.append((2 * (plus + (minus << shift)),
                      2 * (minus + (plus << shift))))
        left.append((plus + minus) * (1 + (1 << shift)))
    ones = sum(1 << (f * width) for f in range(2 * m.cols))
    top = top_bit * ones
    base = (top_bit - 2) * ones

    def signing(subset):
        """The fields of a complete signing of ``subset``, or None."""
        k = len(subset)

        def extend(t, sums):
            if t == k:
                return sums
            for step in steps[subset[t]]:
                nxt = sums + step
                if not nxt & top:
                    done = extend(t + 1, nxt)
                    if done is not None:
                        return done
            return None

        # the slacks start at -r_j, the first row is signed +1
        first = base - sum(left[i] for i in subset) + steps[subset[0]][0]
        return None if first & top else extend(1, first)

    moves = [(plus - rest, minus - rest)
             for (plus, minus), rest in zip(steps, left)]
    for a, b in combinations(range(m.rows), 2):
        one = base + moves[a][0]
        if one + moves[b][0] & top and one + moves[b][1] & top:
            return TuVerdict(False, METHOD_GH)
    for subset in combinations(range(m.rows), 3):
        if signing(subset) is None:
            return TuVerdict(False, METHOD_GH)
    last = m.rows - 1
    chosen = []  # S, whose complete signing is ``sums``

    def walk(sums, start):
        for i in range(start, m.rows):
            plus, minus = moves[i]
            nxt = sums + plus
            if nxt & top:
                nxt = sums + minus
                if nxt & top:
                    nxt = signing(chosen + [i])
                    if nxt is None:
                        return False
            if i < last:  # the last row's subsets have no children
                chosen.append(i)
                ok = walk(nxt, i + 1)
                chosen.pop()
                if not ok:
                    return False
        return True

    return TuVerdict(walk(base, 0), METHOD_GH)


def is_unimodular(m):
    """All order-m minors in {-1,0,1}; requires full row rank.

    The row HNF U * M = H has the leftmost basis B of M on its pivot
    columns, with |det B| the product of the pivots. When every pivot is 1,
    H = B^-1 M is the identity on the pivot columns and N on the others,
    and each order-m minor of M is +-det B times a minor of N, so M is
    unimodular exactly when N is TU.

    N is decided by ``ghouila_houri_check``; only a bool is returned, so
    no witness is lost. An entry of N outside {-1,0,1} decides at once;
    otherwise, past ``GH_ROW_BUDGET`` rows on N's smaller side, it raises
    ``BudgetExceeded``, naming the shape of m.
    """
    hnf, _, pivots = linsolve.row_hnf(m)
    if len(pivots) != m.rows:
        raise PreconditionError(
            f"is_unimodular requires full row rank ({len(pivots)} < {m.rows})")
    return _hnf_is_unimodular(hnf, pivots, f"matrix size {m.rows}x{m.cols}")


def _hnf_is_unimodular(hnf, pivots, given):
    """``is_unimodular(m)`` from ``row_hnf(m)`` = (hnf, _, pivots), for m
    of full row rank. Ghouila-Houri's ``BudgetExceeded`` on N is raised
    again with a text in which ``given`` names the caller's input."""
    if any(hnf.entries[k][p] != 1 for k, p in enumerate(pivots)):
        return False
    n = hnf.submatrix(range(hnf.rows),
                      [j for j in range(hnf.cols) if j not in pivots])
    try:
        return ghouila_houri_check(n).is_tu
    except BudgetExceeded:
        raise _past_gh_budget(f"{given}: its non-pivot block N has",
                              min(n.rows, n.cols)) from None


def polytopal_certificate(m):
    """Integral f evaluating to 1 on every column, or None.

    The Hermite-normal-form lattice solve ``linsolve.solve_left_integer``
    decides integral solvability directly (a system with no rational
    solution has no integral one either). The returned certificate is the
    canonical one (kernel-row coefficients zero), re-verified before
    returning.
    """
    if matrix_arg(m).cols == 0:
        # vacuous: any functional works; pick a canonical nonzero one
        return (1,) + (0,) * (m.rows - 1) if m.rows else None
    ones = (1,) * m.cols
    f = linsolve.solve_left_integer(m, ones)
    if f is None:
        return None
    if apply_functional(f, m) != ones:
        raise AssertionError("certificate failed re-verification")
    return f


def is_prepared(m):
    """Polytopal TU matrix with pairwise distinct columns.

    TU is decided by ``ghouila_houri_check``, so past ``GH_ROW_BUDGET``
    rows on the smaller side of m this raises its ``BudgetExceeded``.
    """
    if not matrix_arg(m).columns_distinct():
        return False
    if polytopal_certificate(m) is None:
        return False
    return ghouila_houri_check(m).is_tu
