"""The exact-arithmetic hot kernels, re-exported by :mod:`tumax.kernels`.

The kernels take their matrices as sequences of rows (points, candidate
columns) of Python ints and compute exactly: a determinant or rank
elimination is fraction-free, so each value it stores is a minor of the
input, held at whatever width it needs. The big ints of the packed minor
table (``_PackedMinors``) are rows of w-bit fields, and w is chosen so
that no field spills over.
"""

from array import array
from itertools import combinations
from math import comb

from .matrix import int_arg


def det_entries(rows):
    """Determinant of a square integer matrix, given by its rows, by
    fraction-free elimination.

    Leftmost-nonzero pivoting with row-swap sign tracking; the Bareiss
    update keeps all stored values integral.
    """
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    a = [list(row) for row in rows]
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
                row_i[j] = (row_i[j] * pk - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pk
    return sign * a[n - 1][n - 1]


def rank_entries(rows):
    """Rank over the rationals of an integer matrix, given by its rows,
    via fraction-free elimination with column skips."""
    a = [list(row) for row in rows]
    nrows = len(a)
    cols = len(a[0]) if a else 0
    r = 0
    prev = 1
    for c in range(cols):
        if r == nrows:
            break
        p = -1
        for i in range(r, nrows):
            if a[i][c] != 0:
                p = i
                break
        if p < 0:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
        row_r = a[r]
        pk = row_r[c]
        for i in range(r + 1, nrows):
            row_i = a[i]
            aic = row_i[c]
            for j in range(c + 1, cols):
                row_i[j] = (row_i[j] * pk - aic * row_r[j]) // prev
            row_i[c] = 0
        prev = pk
        r += 1
    return r


def tu_violation(rows):
    """First square minor of the matrix with these rows outside {-1,0,1},
    or None.

    Scans minors in ascending order; within an order, row index sets then
    column index sets in lexicographic order. Returns (rows, cols, det).
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            if e < -1 or e > 1:
                return ((i,), (j,), e)
    for k in range(2, min(nrows, ncols) + 1):
        for rset in combinations(range(nrows), k):
            sub = [rows[i] for i in rset]
            for cset in combinations(range(ncols), k):
                d = det_entries([[row[j] for j in cset] for row in sub])
                if d < -1 or d > 1:
                    return (rset, cset, d)
    return None


# A block of the packed minor table holds at most this many fields (half
# a megabyte per int at w = 4), more than any walk with m <= 5 needs; a
# walk that would need a longer one stops, incomplete, as at a budget.
_MAX_BLOCK_FIELDS = 1 << 20


class _PackedMinors:
    """The minors of the chosen columns that a later probe reads, packed
    into one pair of big ints per chosen column.

    The block of chosen column j holds det(M[R, T + {j}]) for every row
    set R and every set T of earlier positions with at most m - 2
    members (T = {} when m = 1): the minors of at most m - 1 columns
    whose last column is j, the only ones a probe reads again. Each
    T (a bitmask) takes 2**m fields, field R at offset R, and the sets T
    come in numeric order; fields with |R| != |T| + 1 hold 0. As the
    chosen matrix is TU, each value x is in {-1, 0, 1} and is stored as a
    0/1 field of ``pos`` (x = 1) or of ``neg`` (x = -1), every field
    ``w`` bits wide. ``table[j]`` is the (pos, neg) block of column j.

    The block of a column v appended at position c starts with its sets
    T without c - 1, the block of v at position c - 1 that a probe one
    level down built and checked. TU is hereditary, so only the minors
    through both v and chosen column c - 1 need a check. They come from
    the block of that column by Laplace expansion along v,

        det(M[R, C + v]) = sum over i in R of (-1)^s * v_i * det(M[R - i, C])

    where s counts the rows of R with an index greater than i. For a
    fixed i the map R - i -> R is a shift by 2**i fields, so the whole
    image is a sum of masked shifts of that block: a few big-int
    operations per nonzero entry of v check every new minor at once.
    The images from sets T with at most m - 3 members follow in v's block
    in the same order; the others, order-m minors, are checked and
    dropped: none up to depth m - 2, the last set at depth m - 1 (cut
    off by a shorter all-ones mask), and runs spread over the block
    deeper (the kept runs are gathered as bytes).
    """

    def __init__(self, m):
        self.m = m
        # fields hold sums of at most m terms plus the bias k below
        self.w = w = (m + 1).bit_length() + 1
        self.k = (1 << (w - 1)) - 2
        # the source fields R - i of row i's terms by the parity of s
        self._signs = signs = ([0] * m, [0] * m)
        for r in range(1 << m):
            for i in range(m):
                if not r >> i & 1:
                    signs[bin(r >> (i + 1)).count("1") & 1][i] |= 1 << (r * w)
        # |T| of each set T of a block at position len(self._levels)
        self._sizes = [0]
        self._levels = []
        self.table = []

    def _level(self, c):
        """Constants of a probe at depth c, over blocks at position c - 1:
        sign masks, all-ones and top-bit masks, the width in bits, the byte
        slices of the kept runs (none for a prefix), the kept all-ones."""
        while len(self._levels) < c:
            m, w, sizes = self.m, self.w, self._sizes
            run = w << m
            full = (1 << (run * len(sizes))) - 1
            rep = full // ((1 << run) - 1)
            ones = full // ((1 << w) - 1)
            keep = [s < m - 2 for s in sizes]
            nkept = sum(keep)
            edges = [j for j in range(len(sizes) + 1) if
                     (j < len(sizes) and keep[j]) != (j > 0 and keep[j - 1])]
            # a kept prefix needs no gather: the kept all-ones cuts it off
            slices = () if edges in ([], [0, nkept]) else tuple(
                slice(a * run >> 3, b * run >> 3)
                for a, b in zip(edges[::2], edges[1::2]))
            self._levels.append((
                [e * rep for e in self._signs[0]],
                [o * rep for o in self._signs[1]],
                ones, ones << (w - 1), run * len(sizes), slices,
                ones if nkept == len(sizes)
                else ((1 << (run * nkept)) - 1) // ((1 << w) - 1)))
            self._sizes = sizes + [s + 1 for s, f in zip(sizes, keep) if f]
        return self._levels[c - 1]

    def terms(self, col):
        """(row, entry, shift in bits) for the nonzero entries of ``col``,
        whose entries must be in {-1, 0, 1}."""
        return [(i, e, self.w << i) for i, e in enumerate(col) if e]

    def single(self, terms):
        """The block of a lone column at position 0: field {i} of its one
        set T, the empty one, holds entry i."""
        return (sum(1 << sh for _, e, sh in terms if e > 0),
                sum(1 << sh for _, e, sh in terms if e < 0))

    def probe(self, c, terms, base):
        """The block of a column appended at position c >= 1, after the
        first c chosen ones, or None when a minor through it and chosen
        column c - 1, order-m minors included, is outside {-1, 0, 1}.
        ``base`` is the block of the same column at position c - 1
        (``single`` when c = 1); the table itself is not changed.

        Only the sign of each entry is read, so a column with an entry
        outside {-1, 0, 1} gets a wrong answer; max_tu_subset never
        probes one, as its ``ok1_mask`` filter drops such candidates."""
        even, odd, ones, hi, half, slices, kept = self._level(c)
        # the block of chosen column c - 1
        bp, bn = self.table[c - 1]
        sp = 0
        sn = 0
        for i, e, sh in terms:
            if e > 0:
                ev, od = even[i], odd[i]
            else:
                ev, od = odd[i], even[i]
            sp += ((bp & ev) | (bn & od)) << sh
            sn += ((bn & ev) | (bp & od)) << sh
        kones = ones * self.k
        q = sp + kones - sn
        if q & hi or ((kones << 1) - q) & hi:
            return None
        # q - (k - 1) is 0, 1 or 2 in each field for a minor of -1, 0, 1
        q -= kones - ones
        if slices:
            buf = q.to_bytes(half >> 3, "little")
            q = int.from_bytes(b"".join(map(buf.__getitem__, slices)),
                               "little")
        # base's block, then the kept images
        return (base[0] | (((q >> 1) & kept) << half),
                base[1] | ((kept & ~(q | (q >> 1))) << half))

    def push(self, c, block):
        """Make ``block``, from ``probe(c, ...)`` (``single`` when c = 0),
        the block of chosen column c."""
        self.table[c:] = [block]


def _pair_masks(cand, m):
    """(ok1_mask, compat) for length-m candidate columns.

    ok1_mask has bit j set when candidate j has all entries in
    {-1, 0, 1}; compat[i] is the bitmask of the later such candidates
    j > i whose 2x2 minors beside candidate i are all in {-1, 0, 1}
    (0 when candidate i itself is not such a column).

    For such columns the minor on rows a < b, c_i[a] c_j[b] - c_i[b] c_j[a],
    is +-2 exactly when c_i[a] c_i[b] and c_j[a] c_j[b] are nonzero with
    opposite signs. So each row pair keeps a bitmask of the candidates
    whose product there is +1 and one of those whose product is -1, and
    a candidate's bad partners are the union, over its row pairs, of the
    mask of the opposite sign: linear in the candidate count.
    """
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    ok1_mask = 0
    products = {}
    plus = [0] * len(pairs)
    minus = [0] * len(pairs)
    for j, c in enumerate(cand):
        if not all(-1 <= e <= 1 for e in c):
            continue
        bit = 1 << j
        ok1_mask |= bit
        products[j] = prods = [c[a] * c[b] for a, b in pairs]
        for k, s in enumerate(prods):
            if s > 0:
                plus[k] |= bit
            elif s < 0:
                minus[k] |= bit
    compat = [0] * len(cand)
    for i, prods in products.items():
        bad = 0
        for k, s in enumerate(prods):
            if s > 0:
                bad |= minus[k]
            elif s < 0:
                bad |= plus[k]
        compat[i] = ok1_mask & ~bad & ~((2 << i) - 1)
    return ok1_mask, compat


def max_tu_subset(cands, perms=None, stop_at=-1, node_budget=-1):
    """Depth-first search for a maximum candidate subset forming a TU matrix.

    ``cands`` are the candidate columns, all of one length m. Subsets are
    explored in lexicographic index order, so the reported witness is the
    lexicographically least among maximum subsets. Pair-incompatibility
    (a 2x2 minor outside {-1,0,1}) prunes branches before any other check.

    A node is one subset test, counted whether or not it runs a minor
    check. TU is hereditary, so the answers are kept per chosen prefix:
    the test of chosen[:k] + [t] first asks for chosen[:k-1] + [t], from
    the memo or by the same test one level down, and fails without a
    check when that one failed. Each (prefix, t) pair is thus checked at
    most once, while the walk, the node count and the witness are those
    of testing every node afresh. A check is one probe of the packed
    minor table: it computes only the minors through both t and
    chosen[k-1], and the others come from the block of chosen[:k-1] +
    [t]. A walk that would need a block of more than _MAX_BLOCK_FIELDS
    fields stops there, flagged incomplete. No walk with m <= 5 gets
    there: Heller's bound keeps it within m*m + m + 1 columns.

    perms       optional candidate-index permutations; a subset is skipped
                when some permutation maps it to a lex-smaller one.
    stop_at     stop as soon as a subset of this size is found (>=0).
    node_budget abort after this many subset tests (>=0); result is then
                flagged incomplete.

    Returns (best_size, witness_indices, nodes, complete).
    """
    for name, k in (("stop_at", stop_at), ("node_budget", node_budget)):
        int_arg(k, -1, f"{name} must be an integer >= -1, got {k!r}")
    cand = [tuple(c) for c in cands]
    ncand = len(cand)
    m = len(cand[0]) if cand else 0
    ok1_mask, compat = _pair_masks(cand, m)

    best = 0
    witness = []
    nodes = 0
    budget_hit = False
    target_hit = False
    chosen = []

    minors = _PackedMinors(m)
    terms = {}
    # the walk stops before the first position whose block would hold
    # more than _MAX_BLOCK_FIELDS fields
    stop = next((c for c in range(ncand) if sum(
        comb(c, s) for s in range(m - 1)) << m > _MAX_BLOCK_FIELDS), ncand)

    # known[k][t] is test(t, k) for the current chosen[:k]: the block of
    # chosen[:k] + [t] when that is TU, else None; known[k + 1] is reset
    # whenever chosen[k] changes
    known = [{}]

    def test(t, k):
        memo = known[k]
        if t in memo:
            return memo[t]
        if k:
            # TU is hereditary: when chosen[:k-1] + [t] is not TU, neither
            # is chosen[:k] + [t]
            base = test(t, k - 1)
            ok = base and minors.probe(k, terms[t], base)
        else:
            terms[t] = minors.terms(cand[t])
            ok = minors.single(terms[t])
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
        k = len(chosen)
        if node_budget >= 0 and nodes >= node_budget or k >= stop:
            budget_hit = True
            return
        nodes += 1
        if perms and not canonical(chosen + [j]):
            return
        ok = test(j, k)
        if not ok:
            return
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
        if ok1_mask >> j & 1:
            visit(j, ok1_mask)
        if budget_hit or target_hit:
            break
    return best, witness, nodes, not budget_hit


def unimodular_violation(points):
    """First (d+1)-point subset spanning a non-unimodular simplex, or None.

    ``points`` are points of one dimension d. For each (d+1)-subset the
    determinant of the difference vectors is computed; zero means an
    affinely dependent subset (allowed), and any |det| != 1 is returned
    as (index_tuple, det).
    """
    d = len(points[0]) if points else 0
    for subset in combinations(range(len(points)), d + 1):
        base = points[subset[0]]
        det = det_entries([[x - y for x, y in zip(points[i], base)]
                           for i in subset[1:]])
        if det != 0 and det != 1 and det != -1:
            return (subset, det)
    return None


# canonical_masks reads a mask through one table per byte, two at most
MAX_ORBIT_POINTS = 16


def canonical_masks(npoints, perms, min_size, max_size):
    """Bitmasks over ``npoints`` points that are canonical under ``perms``.

    ``perms`` is a permutation group without its identity. A mask is
    canonical when it is the smallest mask of its orbit, that is when no
    permutation maps it to a numerically smaller mask. Only masks with
    popcount in [min_size, max_size] are returned, in increasing order.

    The masks are walked in increasing order, and the first one whose
    orbit has not been seen yet is its orbit's minimum. Its images under
    the group are its whole orbit (the group is closed), so they are
    marked seen in a ``bytearray`` of one byte per mask: each orbit is
    mapped once, instead of each mask being tested against every
    permutation.

    At most ``MAX_ORBIT_POINTS`` = 16 points are admitted (the 16 vertices
    of the 4-cube, the classification's largest case); more raise
    UsageError. Each permutation has length ``npoints`` and maps point i
    to point ``p[i]``. It gets two tables, for the low and the high byte
    of a mask, mapping the byte's value to the image of its bits; the
    high table covers just the bit positions below ``npoints`` (one entry,
    0, when there are at most 8 points). The tables are ``array``s of
    16-bit entries, about 0.4 MB for the 383 cube symmetries of d = 4
    rather than megabytes of Python ints. Each is filled by doubling: the
    values with top bit ``bit`` are those below it with the image of that
    bit added.
    """
    int_arg(npoints, 0, f"canonical_masks takes at most {MAX_ORBIT_POINTS} "
            f"points, got {npoints!r}", high=MAX_ORBIT_POINTS)
    for name, k in (("min_size", min_size), ("max_size", max_size)):
        int_arg(k, 0, f"{name} must be an integer >= 0, got {k!r}")

    def table(images):
        t = array("H", [0])
        for i in images:
            bit = 1 << i
            t += array("H", [v | bit for v in t])
        return t

    pairs = [(table(p[:8]), table(p[8:])) for p in perms]
    seen = bytearray(1 << npoints)
    out = []
    for mask in range(1 << npoints):
        if seen[mask]:
            continue
        pc = mask.bit_count()
        if pc < min_size or pc > max_size:
            continue
        out.append(mask)
        low = mask & 255
        high = mask >> 8
        for lo, hi in pairs:
            seen[lo[low] | hi[high]] = 1
    return out
