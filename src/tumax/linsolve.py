"""Exact linear algebra over the integers, all through one row Hermite
normal form.

All routines are deterministic: pivots are chosen leftmost-first and the
HNF is the canonical one (positive pivots, entries above a pivot reduced
into [0, pivot)). The pivot columns are the greedy leftmost independent
columns. Row covector conventions match the certification module: we
solve f * M = w for a row vector f.
"""

from .errors import UsageError
from .matrix import IntMatrix, int_vector, matrix_arg


def _xgcd(a, b):
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def row_hnf(m):
    """Row Hermite normal form with its unimodular left transform.

    Returns (H, U, pivots) with U * m = H, U unimodular, pivots the
    pivot column of each nonzero row of H. H and U are exact and not
    range-checked: U is not unique when m has fewer pivots than rows, and
    can outgrow 64 bits on small inputs.
    """
    h = [list(row) for row in matrix_arg(m).entries]
    u = [[1 if i == j else 0 for j in range(m.rows)] for i in range(m.rows)]
    r = 0
    pivots = []
    for c in range(m.cols):
        if r == m.rows:
            break
        piv = next((i for i in range(r, m.rows) if h[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            h[r], h[piv] = h[piv], h[r]
            u[r], u[piv] = u[piv], u[r]
        for i in range(r + 1, m.rows):
            if h[i][c] == 0:
                continue
            a, b = h[r][c], h[i][c]
            g, x, y = _xgcd(a, b)
            ag, bg = a // g, b // g
            h[r], h[i] = ([x * p + y * q for p, q in zip(h[r], h[i])],
                          [-bg * p + ag * q for p, q in zip(h[r], h[i])])
            u[r], u[i] = ([x * p + y * q for p, q in zip(u[r], u[i])],
                          [-bg * p + ag * q for p, q in zip(u[r], u[i])])
        if h[r][c] < 0:
            h[r] = [-p for p in h[r]]
            u[r] = [-p for p in u[r]]
        for i in range(r):
            q = h[i][c] // h[r][c]
            if q:
                h[i] = [p - q * t for p, t in zip(h[i], h[r])]
                u[i] = [p - q * t for p, t in zip(u[i], u[r])]
        pivots.append(c)
        r += 1
    return (IntMatrix(m.rows, m.cols, tuple(map(tuple, h))),
            IntMatrix(m.rows, m.rows, tuple(map(tuple, u))),
            tuple(pivots))


def hnf_solver(h, u, pivots):
    """The function w -> solve_left_integer(m, w) for (h, u, pivots) =
    row_hnf(m), so that one HNF of ``m`` serves every right-hand side.
    A target ``w`` is a sequence of ints; any other entry, such as 2.0 or
    True, raises UsageError."""
    matrix_arg(h, "h")
    matrix_arg(u, "u")

    def solve(w):
        w = int_vector(w, "w")
        if len(w) != h.cols:
            raise UsageError("target length must equal the column count")
        resid = list(w)
        coeffs = [0] * u.rows
        for k, p in enumerate(pivots):
            q, rem = divmod(resid[p], h.entries[k][p])
            if rem:
                return None
            coeffs[k] = q
            if q:
                hk = h.entries[k]
                resid = [resid[j] - q * hk[j] for j in range(h.cols)]
        if any(resid):
            return None
        f = [0] * u.rows
        for k in range(len(pivots)):
            if coeffs[k]:
                uk = u.entries[k]
                for i in range(u.rows):
                    f[i] += coeffs[k] * uk[i]
        return tuple(f)

    return solve


def solve_left_integer(m, w):
    """Canonical integer row vector f with f * m = w, or None.

    Solves over the lattice spanned by the rows of ``m`` using the row
    HNF; coefficients of the kernel rows are fixed to zero, which makes
    the returned solution deterministic. ``w`` is read as by
    ``hnf_solver``.
    """
    return hnf_solver(*row_hnf(m))(w)


def invert_unimodular(m):
    """Exact integer inverse of a square matrix with determinant +-1.

    The HNF of a matrix with determinant +-1 is the identity, so the HNF
    transform U (with U * m = I) is the inverse.
    """
    if matrix_arg(m).rows != m.cols:
        raise UsageError("inverse requires a square matrix")
    h, u, pivots = row_hnf(m)
    if len(pivots) < m.rows:
        raise UsageError("matrix is singular")
    if any(h.entries[k][k] != 1 for k in range(m.rows)):
        raise UsageError("matrix is not unimodular; inverse is not integral")
    return u
