"""The bound function h, its exhaustive verification, and every explicit
extremal matrix family: the complete-digraph family, bipartite incidence
extremal matrices, and the fixed 5x5/5x10/4x10 sporadic matrices with
their equivalence test.
"""

from ._record import Record
from .errors import UsageError
from .matrix import IntMatrix, int_arg, matrix_arg


def h(x):
    """floor((x+1)^2 / 4), with the single exceptional value h(5) = 10.
    Any ``x`` but an int >= 1, such as 2.5 or True, raises UsageError."""
    x = int_arg(x, 1, "h is defined for integers >= 1")
    return 10 if x == 5 else (x + 1) * (x + 1) // 4


class BoundReport(Record):
    part: int
    x_range: tuple
    y_range: tuple
    exceptions_found: tuple
    exceptions_expected: tuple
    match: bool

    def to_json_dict(self):
        return {
            "part": self.part,
            "x_range": list(self.x_range),
            "y_range": list(self.y_range),
            "exceptions_found": [list(p) for p in self.exceptions_found],
            "exceptions_expected": [list(p) for p in self.exceptions_expected],
            "match": self.match,
        }


_EXPECTED_EXCEPTIONS = {
    1: frozenset(),
    2: frozenset(),
    3: frozenset({(3, 1), (3, 3), (5, 1)}),
    4: frozenset({(2, 2), (2, 4), (4, 2)}),
}

_PARTS = {
    # part: (x_min, y_min, lhs(hs, x, y)) for the table hs[k] = h(k)
    1: (1, 1, lambda hs, x, y: hs[x] + hs[y]),
    2: (2, 1, lambda hs, x, y: hs[x] + hs[y + 1]),
    3: (3, 1, lambda hs, x, y: hs[x] + hs[y + 2]),
    4: (2, 2, lambda hs, x, y: hs[x + 1] + hs[y + 1]),
}


def verify_extralemma(maximum):
    """Exhaustively check the four superadditivity inequalities up to ``maximum``.

    Each part collects every (x, y) in its domain with lhs > h(x+y) and
    compares the set against the known exception list.
    """
    int_arg(maximum, 10, "maximum must be at least 10 to cover the exceptions")
    hs = [None] + [h(k) for k in range(1, 2 * maximum + 1)]
    reports = []
    for part, (x0, y0, lhs) in _PARTS.items():
        found = []
        for x in range(x0, maximum + 1):
            for y in range(y0, maximum + 1):
                if lhs(hs, x, y) > hs[x + y]:
                    found.append((x, y))
        expected = _EXPECTED_EXCEPTIONS[part]
        reports.append(BoundReport(
            part=part,
            x_range=(x0, maximum),
            y_range=(y0, maximum),
            exceptions_found=tuple(sorted(found)),
            exceptions_expected=tuple(sorted(expected)),
            match=set(found) == set(expected),
        ))
    return reports


def heller_family(m):
    """m x (m^2+m+1) family meeting the classical distinct-column bound.

    Incidence matrix of the complete digraph on m vertices (both arc
    orientations, arcs (i, j) in lexicographic order, +1 at the tail),
    extended by I, -I and the zero column.
    """
    int_arg(m, 2, "the family needs m >= 2")
    cols = []
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            col = [0] * m
            col[i] = 1
            col[j] = -1
            cols.append(col)
    for i in range(m):
        col = [0] * m
        col[i] = 1
        cols.append(col)
    for i in range(m):
        col = [0] * m
        col[i] = -1
        cols.append(col)
    cols.append([0] * m)
    return IntMatrix.from_columns(cols)


def bipartite_extremal(m):
    """Complete-bipartite incidence matrix with one row removed.

    For odd m the graph is K_{(m+1)/2,(m+1)/2}, for even m it is
    K_{m/2,m/2+1}; the removed row is the last row of the second part, so
    summing the first-part rows still evaluates to 1 on every column.
    """
    if int_arg(m, 1, "m must be >= 1") == 5:
        raise UsageError("m = 5 is the sporadic case; use sporadic_5x10()")
    if m % 2 == 1:
        a = b = (m + 1) // 2
    else:
        a, b = m // 2, m // 2 + 1
    cols = []
    for i in range(a):
        for j in range(b):
            col = [0] * (a + b)
            col[i] = 1
            col[a + j] = 1
            cols.append(col)
    full = IntMatrix.from_columns(cols)
    return full.submatrix(range(a + b - 1), range(full.cols))


def sporadic_5x10():
    """The sharp 5x10 witness for the m = 5 column bound."""
    return IntMatrix.from_rows([
        [1, 0, 0, 0, 0, 1, 0, 0, 1, -1],
        [0, 1, 0, 0, 0, -1, 1, 0, 0, 1],
        [0, 0, 1, 0, 0, 1, -1, 1, 0, 0],
        [0, 0, 0, 1, 0, 0, 1, -1, 1, 0],
        [0, 0, 0, 0, 1, 0, 0, 1, -1, 1],
    ])


_SPORADIC_1 = (
    (-1, 1, 0, 0, 1),
    (1, -1, 1, 0, 0),
    (0, 1, -1, 1, 0),
    (0, 0, 1, -1, 1),
    (1, 0, 0, 1, -1),
)

_SPORADIC_2 = (
    (1, 1, 0, 0, 1),
    (0, 1, 1, 0, 1),
    (0, 0, 1, 1, 1),
    (1, 0, 0, 1, 1),
    (1, 1, 1, 1, 1),
)


def sporadic_5x5(variant):
    """One of the two fixed 5x5 matrices, byte-exact."""
    variant = int_arg(variant, 1, "variant must be 1 or 2", high=2)
    return IntMatrix.from_rows((_SPORADIC_1, _SPORADIC_2)[variant - 1])


def ex4_matrix():
    """0/1 vertex matrix of the 10-vertex 4-dimensional example polytope."""
    return IntMatrix.from_rows([
        [0, 0, 0, 0, 1, 1, 1, 1, 1, 1],
        [0, 1, 1, 1, 0, 0, 0, 1, 1, 1],
        [1, 0, 1, 1, 0, 1, 1, 0, 0, 1],
        [1, 1, 0, 1, 1, 0, 1, 0, 1, 0],
    ])


def _sign_canonical(vec):
    lead = next((x for x in vec if x != 0), 0)
    return tuple(-x for x in vec) if lead < 0 else tuple(vec)


def _equivalent_to(m_rows, t_rows):
    """Row/column permutation and +-1 scaling equivalence of 5x5 matrices.

    Backtracks over which signed source row lands in each target row
    position; a partial assignment survives only while the sign-canonical
    multiset of its column prefixes matches the target's.
    """
    n = 5
    t_cols = [tuple(t_rows[i][j] for i in range(n)) for j in range(n)]

    def prefix_multiset(cols, k):
        return sorted(_sign_canonical(c[:k]) for c in cols)

    target_prefix = [prefix_multiset(t_cols, k) for k in range(n + 1)]
    used = [False] * n
    assigned = []

    def rec(k):
        if k == n:
            return True
        for r in range(n):
            if used[r]:
                continue
            signs = (1,) if all(x == 0 for x in m_rows[r]) else (1, -1)
            for s in signs:
                assigned.append(tuple(s * x for x in m_rows[r]))
                used[r] = True
                cols = [tuple(assigned[i][j] for i in range(k + 1))
                        for j in range(n)]
                if prefix_multiset(cols, k + 1) == target_prefix[k + 1]:
                    if rec(k + 1):
                        return True
                assigned.pop()
                used[r] = False
        return False

    return rec(0)


def is_sporadic(m):
    """Equivalence to either fixed 5x5 matrix under permutation and scaling."""
    if matrix_arg(m).rows != 5 or m.cols != 5:
        raise UsageError("is_sporadic expects a 5x5 matrix")
    if any(e < -1 or e > 1 for row in m.entries for e in row):
        return False
    return (_equivalent_to(m.entries, _SPORADIC_1)
            or _equivalent_to(m.entries, _SPORADIC_2))
