"""Exact linear feasibility via a phase-1 simplex with Bland's rule.

The simplex pivots on integers (Edmonds' fraction-free pivoting, the
Bareiss scheme for a tableau): each stored entry is its true value times
the current basis determinant, so every division is exact. There is no
floating point and no rational arithmetic anywhere, so convex-position
decisions are as exact as the determinant computations.
"""

from .errors import UsageError
from .matrix import int_vector


def feasible_nonneg(a_rows, b):
    """Is {x >= 0 : A x = b} nonempty? Exact phase-1 simplex.

    ``a_rows`` is a dense m x n integer matrix, ``b`` a length-m integer
    vector. Bland's rule (smallest eligible index enters, smallest basis
    index among minimal ratios leaves) guarantees termination.

    The tableau starts on the artificial basis, whose determinant is 1.
    It keeps each entry as its true value times D, the absolute
    determinant of the current basis (D > 0). A pivot on the entry p > 0
    of row r keeps row r, replaces every other row by
    (p * row - f * row_r) // D, f its entry in the entering column, and
    makes p the new D. Each stored entry is, up to sign, a minor of
    (A | I | b), so the division is exact. Signs are those of the true
    values, and the ratio test compares rhs_i / t_i by cross-multiplying,
    so every decision is the one a rational tableau would take.

    The entering column has a positive sum over the artificial rows, so
    one of them has a positive entry in it, and the ratio test always
    finds a leaving row: phase 1 is bounded below by 0.
    """
    a_rows = [int_vector(row, "a_rows") for row in a_rows]
    b = int_vector(b, "b")
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    if len(b) != m or any(len(row) != n for row in a_rows):
        raise UsageError("a_rows must be m rows of one length, b of length m")
    tab = []
    rhs = []
    for i in range(m):
        row = list(a_rows[i])
        bi = b[i]
        if bi < 0:
            row = [-x for x in row]
            bi = -bi
        tab.append(row)
        rhs.append(bi)
    basis = [n + i for i in range(m)]  # artificial variables
    det = 1

    while True:
        # reduced costs of the original variables under the artificial
        # objective: z_j = sum of tableau entries over artificial rows
        art_rows = [i for i in range(m) if basis[i] >= n]
        if not art_rows or all(rhs[i] == 0 for i in art_rows):
            return True
        entering = -1
        for j in range(n):
            if sum(tab[i][j] for i in art_rows) > 0:
                entering = j
                break
        if entering < 0:
            return False
        leaving = -1
        for i in range(m):
            t = tab[i][entering]
            if t > 0:
                if leaving < 0:
                    leaving = i
                    continue
                # rhs[i] / t against rhs[leaving] / tab[leaving][entering]
                here = rhs[i] * tab[leaving][entering]
                best = rhs[leaving] * t
                if here < best or (here == best
                                   and basis[i] < basis[leaving]):
                    leaving = i
        piv_row = tab[leaving]
        piv_rhs = rhs[leaving]
        piv = piv_row[entering]
        for i in range(m):
            if i != leaving:
                f = tab[i][entering]
                tab[i] = [(piv * x - f * y) // det
                          for x, y in zip(tab[i], piv_row)]
                rhs[i] = (piv * rhs[i] - f * piv_rhs) // det
        det = piv
        basis[leaving] = entering


def in_convex_hull(point, points):
    """Exact membership of the integer point ``point`` in conv(points).
    Each point is a sequence of ints of the length of ``point``; any other
    raises UsageError."""
    point = int_vector(point, "point")
    pts = [int_vector(q, "points") for q in points]
    if not pts:
        return False
    d = len(point)
    if any(len(q) != d for q in pts):
        raise UsageError("points must have the dimension of the point")
    a_rows = [[q[k] for q in pts] for k in range(d)]
    a_rows.append([1] * len(pts))
    b = list(point) + [1]
    return feasible_nonneg(a_rows, b)
