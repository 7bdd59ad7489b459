"""The exact-arithmetic hot kernels, re-exported by :mod:`tumax.kernels`.

All kernels work on flat row-major lists of Python ints.

Storage contract: every *stored* intermediate value must fit a signed
64-bit integer; a value leaving that range raises
:class:`~tumax.errors.ArithmeticOverflow` instead of wrapping.
"""

from itertools import combinations

from .errors import ArithmeticOverflow

_LIMIT = 1 << 63


def det_entries(flat, n):
    """Determinant of an n x n integer matrix by fraction-free elimination.

    Leftmost-nonzero pivoting with row-swap sign tracking; the Bareiss
    update keeps all stored values integral.
    """
    if n == 0:
        return 1
    if n == 1:
        return flat[0]
    a = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
    sign = 1
    prev = 1
    for k in range(n - 1):
        p = -1
        for i in range(k, n):
            if a[i][k] != 0:
                p = i
                break
        if p < 0:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        row_k = a[k]
        pk = row_k[k]
        for i in range(k + 1, n):
            row_i = a[i]
            aik = row_i[k]
            for j in range(k + 1, n):
                v = (row_i[j] * pk - aik * row_k[j]) // prev
                if v >= _LIMIT or v <= -_LIMIT:
                    raise ArithmeticOverflow(
                        "intermediate value exceeds 64-bit range in determinant"
                    )
                row_i[j] = v
            row_i[k] = 0
        prev = pk
    return sign * a[n - 1][n - 1]


def rank_entries(flat, rows, cols):
    """Rank over the rationals via fraction-free elimination with column skips."""
    a = [list(flat[i * cols:(i + 1) * cols]) for i in range(rows)]
    r = 0
    prev = 1
    for c in range(cols):
        if r == rows:
            break
        p = -1
        for i in range(r, rows):
            if a[i][c] != 0:
                p = i
                break
        if p < 0:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
        row_r = a[r]
        pk = row_r[c]
        for i in range(r + 1, rows):
            row_i = a[i]
            aic = row_i[c]
            for j in range(c + 1, cols):
                v = (row_i[j] * pk - aic * row_r[j]) // prev
                if v >= _LIMIT or v <= -_LIMIT:
                    raise ArithmeticOverflow(
                        "intermediate value exceeds 64-bit range in rank"
                    )
                row_i[j] = v
            row_i[c] = 0
        prev = pk
        r += 1
    return r


def _subdet(flat, cols, rset, cset):
    k = len(rset)
    sub = [flat[i * cols + j] for i in rset for j in cset]
    return det_entries(sub, k)


def tu_violation(flat, rows, cols):
    """First square minor outside {-1,0,1}, or None.

    Scans minors in ascending order; within an order, row index sets then
    column index sets in lexicographic order. Returns (rows, cols, det).
    """
    for i in range(rows):
        base = i * cols
        for j in range(cols):
            e = flat[base + j]
            if e < -1 or e > 1:
                return ((i,), (j,), e)
    for k in range(2, min(rows, cols) + 1):
        for rset in combinations(range(rows), k):
            for cset in combinations(range(cols), k):
                d = _subdet(flat, cols, rset, cset)
                if d < -1 or d > 1:
                    return (rset, cset, d)
    return None


def extension_violation(flat, rows, cols, newcol):
    """First violating minor of (M|v) that uses the appended column v.

    ``flat`` holds M (rows x cols) which the caller guarantees to be TU,
    so only minors through the new column are enumerated. Indices are
    reported in (M|v), i.e. the new column has index ``cols``.
    """
    for i in range(rows):
        e = newcol[i]
        if e < -1 or e > 1:
            return ((i,), (cols,), e)
    for k in range(2, min(rows, cols + 1) + 1):
        for rset in combinations(range(rows), k):
            for cset in combinations(range(cols), k - 1):
                sub = []
                for i in rset:
                    base = i * cols
                    for j in cset:
                        sub.append(flat[base + j])
                    sub.append(newcol[i])
                d = det_entries(sub, k)
                if d < -1 or d > 1:
                    return (rset, cset + (cols,), d)
    return None


# Bounds on the packed minor table of max_tu_subset: at most this many
# rows, and at most 2**_PACKED_MAX_LOG_FIELDS fields. Past them, search
# nodes fall back to enumerating minors with extension_violation.
_PACKED_MAX_ROWS = 12
_PACKED_MAX_LOG_FIELDS = 20


class _PackedMinors:
    """Every square minor of the chosen columns, packed into two big ints.

    Field ``(C << m) | R`` holds det(M[R, C]) for a row set R and a set C
    of chosen-column positions (bitmasks; rows and columns in ascending
    order); fields with |R| != |C| hold 0. As the chosen matrix is TU,
    each value x is in {-1, 0, 1} and is stored as a 0/1 field of ``pos``
    (x = 1) or of ``neg`` (x = -1), every field ``w`` bits wide.

    Appending a column v at position c adds the fields whose C contains c.
    By Laplace expansion along v,

        det(M[R, C + c]) = sum over i in R of (-1)^s * v_i * det(M[R - i, C])

    where s counts the rows of R with an index greater than i. For a
    fixed i the map R - i -> R is a shift by 2**i fields, so the whole new
    block is a sum of masked shifts of the table: a few big-int operations
    per nonzero entry of v check every minor through v at once.

    ``table[c]`` is the (pos, neg) pair of the first c chosen columns.
    """

    def __init__(self, m):
        self.m = m
        # fields hold sums of at most m terms plus the bias k below
        self.w = w = (m + 1).bit_length() + 1
        self.k = (1 << (w - 1)) - 2
        even = [0] * m
        odd = [0] * m
        for r in range(1 << m):
            for i in range(m):
                if r >> i & 1:
                    continue
                if bin(r >> (i + 1)).count("1") & 1:
                    odd[i] |= 1 << (r * w)
                else:
                    even[i] |= 1 << (r * w)
        self._even = even
        self._odd = odd
        self._levels = []
        self.table = [(1, 0)]

    def _level(self, c):
        """Sign masks, all-ones and top-bit constants for 2**c blocks."""
        while len(self._levels) <= c:
            d = len(self._levels)
            w = self.w
            block = w << self.m
            rep = ((1 << (block << d)) - 1) // ((1 << block) - 1)
            ones = ((1 << (w << (d + self.m))) - 1) // ((1 << w) - 1)
            self._levels.append(([e * rep for e in self._even],
                                 [o * rep for o in self._odd],
                                 ones, ones << (w - 1)))
        return self._levels[c]

    def terms(self, col):
        """(row, entry, shift in bits) for the nonzero entries of ``col``."""
        return [(i, e, self.w << i) for i, e in enumerate(col) if e]

    def probe(self, c, terms):
        """The (pos, neg) pair after appending a column to the first c
        chosen ones, or None when a minor through it is outside
        {-1, 0, 1}. The table itself is not changed."""
        even, odd, ones, hi = self._level(c)
        p, n = self.table[c]
        sp = 0
        sn = 0
        for i, e, sh in terms:
            if e > 0:
                ev, od = even[i], odd[i]
            else:
                ev, od = odd[i], even[i]
            sp += ((p & ev) | (n & od)) << sh
            sn += ((n & ev) | (p & od)) << sh
        kones = ones * self.k
        q = sp + kones - sn
        if q & hi or (sn + kones - sp) & hi:
            return None
        # q - (k - 1) is 0, 1 or 2 in each field for a minor of -1, 0, 1
        q -= kones - ones
        off = self.w << (c + self.m)
        return (p | (((q >> 1) & ones) << off),
                n | ((ones & ~(q | (q >> 1))) << off))

    def push(self, c, level):
        """Make ``level``, a pair from ``probe(c, ...)``, the table entry of
        the first c + 1 chosen columns."""
        self.table[c + 1:] = [level]


def max_tu_subset(m, cand_flat, ncand, perms=None, stop_at=-1,
                  node_budget=-1):
    """Depth-first search for a maximum candidate subset forming a TU matrix.

    Candidates are length-m columns, candidate j at
    ``cand_flat[j*m:(j+1)*m]``. Subsets are explored in lexicographic
    index order, so the reported witness is the lexicographically least
    among maximum subsets. Pair-incompatibility (a 2x2 minor outside
    {-1,0,1}) prunes branches before any other check.

    A node is one subset test, counted whether or not it runs a minor
    check. TU is hereditary, so the answers are kept per chosen prefix:
    the test of chosen + [t] reuses the test of chosen[:k] + [t] for the
    longest such prefix that was already tested with t, and fails
    without a check when that one failed. Each (prefix, t) pair is thus
    checked at most once, while the walk, the node count and the witness
    are those of testing every node afresh.

    perms       optional candidate-index permutations; a subset is skipped
                when some permutation maps it to a lex-smaller one.
    stop_at     stop as soon as a subset of this size is found (>=0).
    node_budget abort after this many subset tests (>=0); result is then
                flagged incomplete.

    Returns (best_size, witness_indices, nodes, complete).
    """
    cand = [tuple(cand_flat[j * m:(j + 1) * m]) for j in range(ncand)]
    ok1 = [all(-1 <= e <= 1 for e in c) for c in cand]
    # compat[i]: bitmask of the later candidates j > i that pass the 2x2
    # minors beside i
    compat = [0] * ncand
    for i in range(ncand):
        if not ok1[i]:
            continue
        ci = cand[i]
        for j in range(i + 1, ncand):
            if not ok1[j]:
                continue
            cj = cand[j]
            good = True
            for a in range(m):
                if not good:
                    break
                for b in range(a + 1, m):
                    d = ci[a] * cj[b] - ci[b] * cj[a]
                    if d < -1 or d > 1:
                        good = False
                        break
            if good:
                compat[i] |= 1 << j
    ok1_mask = sum(1 << j for j in range(ncand) if ok1[j])

    best = 0
    witness = []
    nodes = 0
    budget_hit = False
    target_hit = False
    chosen = []

    packed = m <= _PACKED_MAX_ROWS
    packed_depth = _PACKED_MAX_LOG_FIELDS - m - 1
    minors = _PackedMinors(m) if packed else None
    terms = {}

    def check(t, k):
        """Is chosen[:k] + [t] TU, given that chosen[:k] is? A falsy
        result means no; a TU answer is the packed table pair of
        chosen[:k] + [t], or True past the table."""
        if packed and k <= packed_depth:
            if t not in terms:
                terms[t] = minors.terms(cand[t])
            return minors.probe(k, terms[t])
        flat = [cand[idx][r] for r in range(m) for idx in chosen[:k]]
        return extension_violation(flat, m, k, list(cand[t])) is None

    # known[k][t] is check(t, k) for the current chosen[:k]; known[k + 1]
    # is reset whenever chosen[k] changes
    known = [{}]

    def test(t, k):
        memo = known[k]
        if t in memo:
            return memo[t]
        # TU is hereditary: when chosen[:k-1] + [t] is not TU, neither is
        # chosen[:k] + [t]. Every t reaching test is a column in
        # {-1, 0, 1} and compatible with each chosen column, so the tests
        # below level 2 pass.
        ok = (k < 3 or test(t, k - 1)) and check(t, k)
        memo[t] = ok
        return ok

    def canonical(sub):
        for p in perms:
            t = sorted(p[i] for i in sub)
            if t < sub:
                return False
        return True

    def visit(j, allowed):
        nonlocal best, witness, nodes, budget_hit, target_hit
        if budget_hit or target_hit:
            return
        if node_budget >= 0 and nodes >= node_budget:
            budget_hit = True
            return
        nodes += 1
        if perms and not canonical(chosen + [j]):
            return
        k = len(chosen)
        ok = test(j, k)
        if not ok:
            return
        if ok is not True:  # a packed table pair
            minors.push(k, ok)
        chosen.append(j)
        known[k + 1:] = [{}]
        if len(chosen) > best:
            best = len(chosen)
            witness = list(chosen)
            if stop_at >= 0 and best >= stop_at:
                target_hit = True
        if not target_hit:
            # children in increasing index order, lowest bit first
            child = allowed & compat[j]
            rest = child
            while rest:
                low = rest & -rest
                visit(low.bit_length() - 1, child)
                if budget_hit or target_hit:
                    break
                rest ^= low
        chosen.pop()

    for j in range(ncand):
        if ok1[j]:
            visit(j, ok1_mask)
        if budget_hit or target_hit:
            break
    return best, witness, nodes, not budget_hit


def unimodular_violation(pts_flat, npts, d):
    """First (d+1)-point subset spanning a non-unimodular simplex, or None.

    Points are rows of ``pts_flat`` (npts x d). For each (d+1)-subset the
    determinant of the difference vectors is computed; zero means an
    affinely dependent subset (allowed), and any |det| != 1 is returned
    as (index_tuple, det).
    """
    if npts < d + 1:
        return None
    for subset in combinations(range(npts), d + 1):
        i0 = subset[0]
        base = [pts_flat[i0 * d + t] for t in range(d)]
        sub = []
        for i in subset[1:]:
            off = i * d
            for t in range(d):
                sub.append(pts_flat[off + t] - base[t])
        det = det_entries(sub, d)
        if det != 0 and det != 1 and det != -1:
            return (subset, det)
    return None


def canonical_masks(npoints, perms, min_size, max_size):
    """Bitmasks over ``npoints`` points that are canonical under ``perms``.

    A mask is canonical when no permutation maps it to a numerically
    smaller mask. Only masks with popcount in [min_size, max_size] are
    returned, in increasing order.

    Any ``npoints >= 0`` is valid, whether or not it is a multiple of 8.
    Each permutation has length ``npoints`` and maps point i to point
    ``p[i]``. Masks range over ``[0, 2**npoints)``, so only their low
    ``npoints`` bits are ever looked up: the table of the last, partial
    byte covers just the bit positions below ``npoints``.
    """
    nbytes = (npoints + 7) // 8
    tables = []
    for p in perms:
        per_byte = []
        for b in range(nbytes):
            table = [0] * 256
            for v in range(1 << min(8, npoints - 8 * b)):
                pm = 0
                x = v
                while x:
                    low = x & -x
                    i = low.bit_length() - 1
                    pm |= 1 << p[8 * b + i]
                    x ^= low
                table[v] = pm
            per_byte.append(table)
        tables.append(per_byte)

    out = []
    for mask in range(1 << npoints):
        pc = bin(mask).count("1")
        if pc < min_size or pc > max_size:
            continue
        is_canon = True
        for per_byte in tables:
            pm = 0
            x = mask
            b = 0
            while x:
                pm |= per_byte[b][x & 255]
                x >>= 8
                b += 1
            if pm < mask:
                is_canon = False
                break
        if is_canon:
            out.append(mask)
    return out
