"""Independent reference implementations used to pin expected test values.

Everything here is deliberately naive (cofactor expansion, Fraction
elimination, BFS path walks) and shares no code with the package under
test. Inputs are plain lists.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import lcm
from operator import itemgetter


def g(x):
    """The exact rational (x+1)^2 / 4, the reference for ``families.h``."""
    return Fraction((x + 1) * (x + 1), 4)


def det_cofactor(rows):
    """Determinant by Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, e in enumerate(rows[0]):
        if e == 0:
            continue
        sub = [[r[t] for t in range(n) if t != j] for r in rows[1:]]
        term = e * det_cofactor(sub)
        total += term if j % 2 == 0 else -term
    return total


def minors_in_scan_order(rows_data):
    """(rows, cols, det) of every square minor of a rectangular matrix
    (list): ascending order, then row index sets, then column index sets,
    each in lexicographic order."""
    r = len(rows_data)
    c = len(rows_data[0]) if r else 0
    for k in range(1, min(r, c) + 1):
        for rset in combinations(range(r), k):
            for cset in combinations(range(c), k):
                sub = [[rows_data[i][j] for j in cset] for i in rset]
                yield rset, cset, det_cofactor(sub)


def first_violating_minor(rows_data):
    """The first minor outside {-1, 0, 1} in scan order, as (rows, cols,
    det), or None."""
    return next((minor for minor in minors_in_scan_order(rows_data)
                 if not -1 <= minor[2] <= 1), None)


def is_tu_bruteforce(rows_data):
    return first_violating_minor(rows_data) is None


def is_tu_by_minor_table(rows_data):
    """``is_tu_bruteforce`` for wider matrices."""
    return violating_order(rows_data) is None


def violating_order(rows_data):
    """The least order of a square minor outside {-1, 0, 1}, or None. The
    minors of each order are expanded along their last column from a
    table of the minors one order lower, so each takes at most k
    products."""
    r = len(rows_data)
    c = len(rows_data[0]) if r else 0
    lower = {((), ()): 1}
    for k in range(1, min(r, c) + 1):
        table = {}
        for cset in combinations(range(c), k):
            rest, last = cset[:-1], cset[-1]
            for rset in combinations(range(r), k):
                d = 0
                for pos, i in enumerate(rset):
                    e = rows_data[i][last]
                    if e:
                        minor = lower[(rset[:pos] + rset[pos + 1:], rest)]
                        d += e * minor if (k - 1 - pos) % 2 == 0 else -e * minor
                if not -1 <= d <= 1:
                    return k
                table[(rset, cset)] = d
        lower = table
    return None


def max_tu_subset_reference(m, cands, perms=None, stop_at=-1,
                            node_budget=-1):
    """Lexicographic DFS for a largest TU subset of the length-m columns
    ``cands``, every trial checked with ``is_tu_bruteforce``.

    A node is one trial subset, counted before it is tested. Children of
    an accepted subset are the later candidates with entries in
    {-1, 0, 1} that form a TU pair with each chosen column. A trial is
    skipped untested when some index permutation in ``perms`` maps it to
    a lexicographically smaller sorted subset. The walk stops at the
    first subset of size ``stop_at`` (>= 0), or when a node is due after
    ``node_budget`` nodes (>= 0), which marks it incomplete. Returns
    (best size, witness indices, nodes, complete).
    """
    n = len(cands)

    def columns(subset):
        return [[cands[j][r] for j in subset] for r in range(m)]

    usable = [all(-1 <= e <= 1 for e in c) for c in cands]
    best, witness, nodes = 0, [], 0
    stopped = None

    def visit(chosen, t):
        nonlocal best, witness, nodes, stopped
        if 0 <= node_budget <= nodes:
            stopped = "budget"
            return
        nodes += 1
        trial = chosen + [t]
        if any(sorted(p[i] for i in trial) < trial for p in perms or ()):
            return
        if not is_tu_bruteforce(columns(trial)):
            return
        if len(trial) > best:
            best, witness = len(trial), trial
            if 0 <= stop_at <= best:
                stopped = "target"
                return
        for u in range(t + 1, n):
            if usable[u] and all(is_tu_bruteforce(columns([c, u]))
                                 for c in trial):
                visit(trial, u)
                if stopped:
                    return

    for j in range(n):
        if usable[j]:
            visit([], j)
        if stopped:
            break
    return best, witness, nodes, stopped != "budget"


def coordinate_index_perms(cands, m):
    """Yield, for every coordinate permutation sigma but the identity in
    ``itertools.permutations`` order, the candidate-index permutation that
    sends column i to the index of column i with its coordinates permuted
    by sigma, each looked up column by column."""
    index = {tuple(c): i for i, c in enumerate(cands)}
    for sigma in permutations(range(m)):
        if sigma != tuple(range(m)):
            # sigma has m >= 2 entries here, so ``permuted`` returns a tuple
            permuted = itemgetter(*sigma)
            yield [index[permuted(c)] for c in cands]


def matmul(a, b):
    """The product of two matrices given as row sequences, as a list of
    row lists."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def rank_fractions(rows_data):
    """Rank over the rationals by plain Gaussian elimination."""
    a = [[Fraction(e) for e in row] for row in rows_data]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == nrows:
            break
    return r


def rational_row_solution(rows_data, target):
    """Some rational f with f * M = target, or None (Gaussian elimination).

    Solves the transposed system M^T f^T = target^T over Fractions.
    """
    m = len(rows_data)
    n = len(rows_data[0]) if m else 0
    if len(target) != n:
        raise ValueError("target length mismatch")
    aug = [[Fraction(rows_data[i][j]) for i in range(m)] + [Fraction(target[j])]
           for j in range(n)]
    r = 0
    pivots = []
    for c in range(m):
        piv = next((i for i in range(r, n) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    for i in range(r, n):
        if aug[i][m] != 0:
            return None
    f = [Fraction(0)] * m
    for k, c in enumerate(pivots):
        f[c] = aug[k][m]
    return f


def tree_path_arcs_bfs(nvertices, arcs, s, t):
    """Walk the unique s-t path of a tree given as arc list.

    Returns a list of (arc_index, sign) pairs: sign +1 when the arc is
    traversed tail->head, -1 otherwise. BFS from s, then backtrack.
    """
    adj = [[] for _ in range(nvertices)]
    for idx, (a, b) in enumerate(arcs):
        adj[a].append((b, idx, 1))
        adj[b].append((a, idx, -1))
    prev = {s: None}
    queue = [s]
    while queue:
        v = queue.pop(0)
        if v == t:
            break
        for (w, idx, sign) in adj[v]:
            if w not in prev:
                prev[w] = (v, idx, sign)
                queue.append(w)
    if t not in prev:
        raise ValueError("no path; graph not connected")
    path = []
    v = t
    while prev[v] is not None:
        u, idx, sign = prev[v]
        path.append((idx, sign))
        v = u
    path.reverse()
    return path


def is_spanning_tree(nvertices, arcs):
    """Union-find: the arcs join all vertices and no arc closes a cycle.
    The graph with no vertices is no tree."""
    root = list(range(nvertices))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for a, b in arcs:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        root[ra] = rb
    return nvertices >= 1 and len({find(v) for v in range(nvertices)}) == 1


def is_bipartite_bruteforce(nvertices, arcs):
    """Some 2-colouring of the vertices splits every arc's ends, tried
    over all 2^n colourings. A loop's ends never split."""
    return any(all((mask >> a ^ mask >> b) & 1 for a, b in arcs)
               for mask in range(1 << nvertices))


def network_column_bfs(nvertices, tree_arcs, s, t):
    """Network-matrix column for digraph arc s->t via the BFS path oracle."""
    col = [0] * len(tree_arcs)
    for idx, sign in tree_path_arcs_bfs(nvertices, tree_arcs, s, t):
        col[idx] = sign
    return col


def random_tree_arcs(rng, nvertices):
    """Uniform random labeled tree (Pruefer sequence), random orientations."""
    if nvertices <= 1:
        return []
    if nvertices == 2:
        return [(0, 1)] if rng.random() < 0.5 else [(1, 0)]
    seq = [rng.randrange(nvertices) for _ in range(nvertices - 2)]
    degree = [1] * nvertices
    for v in seq:
        degree[v] += 1
    import heapq

    leaves = [v for v in range(nvertices) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return [(a, b) if rng.random() < 0.5 else (b, a) for a, b in edges]


def canonical_masks_bruteforce(npoints, perms, min_size, max_size):
    """Masks over ``npoints`` points that no perm maps to a smaller mask.

    Applies each permutation bit by bit; popcount in [min_size, max_size].
    """
    out = []
    for mask in range(1 << npoints):
        if not min_size <= bin(mask).count("1") <= max_size:
            continue
        if all(permute_mask(mask, p) >= mask for p in perms):
            out.append(mask)
    return out


def permute_mask(mask, perm):
    """Image of a point bitmask when point i is sent to point perm[i]."""
    image = 0
    for i, j in enumerate(perm):
        if mask >> i & 1:
            image |= 1 << j
    return image


def inverse_fractions(rows_data):
    """Inverse over the rationals by Gauss-Jordan elimination, or None
    when the square matrix is singular."""
    n = len(rows_data)
    a = [[Fraction(e) for e in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows_data)]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return None
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def greedy_independent_columns(rows_data, ncols):
    """Leftmost columns, each independent of the ones chosen before it."""
    chosen = []
    for j in range(ncols):
        cand = chosen + [j]
        sub = [[row[k] for k in cand] for row in rows_data]
        if rank_fractions(sub) == len(cand):
            chosen = cand
    return chosen


def is_unimodular_maximal_minors(rows_data, ncols):
    """Every order-m minor (m = row count) in {-1, 0, 1}. The minors of
    the first k rows on every k-column set are expanded along row k from a
    table of those of the first k - 1 rows (Laplace), so each minor takes
    at most k products."""
    minors = {(): 1}
    for k, row in enumerate(rows_data):
        table = {}
        for cset in combinations(range(ncols), k + 1):
            d = 0
            for pos, j in enumerate(cset):
                if row[j]:
                    term = row[j] * minors[cset[:pos] + cset[pos + 1:]]
                    d += term if (k + pos) % 2 == 0 else -term
            table[cset] = d
        minors = table
    return all(-1 <= v <= 1 for v in minors.values())


@lru_cache(maxsize=1 << 12)
def _barycentric_map(simplex):
    """(E, c) with E (1, q) = c (l, z) for every q: l the Fractions with
    sum l_i = 1 and sum l_i s_i = q over the points s_i of ``simplex``,
    and z = 0 exactly when q is on their affine hull. E is an integer
    matrix and c > 0 the lcm of its denominators over the Fractions.
    None when the points are affinely dependent. Gauss-Jordan elimination
    of the homogenized points (the columns (1, s_i)) beside the identity
    records E / c."""
    k, n = len(simplex), len(simplex[0]) + 1
    rows = [[Fraction(1)] * k] + [[Fraction(s[c]) for s in simplex]
                                  for c in range(n - 1)]
    rows = [r + [Fraction(int(i == j)) for j in range(n)]
            for i, r in enumerate(rows)]
    for c in range(k):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    scale = lcm(*(x.denominator for r in rows for x in r[k:]))
    return tuple(tuple(int(x * scale) for x in r[k:]) for r in rows), scale


def barycentric_fractions(simplex, point):
    """The Fractions l with sum l_i = 1 and sum l_i s_i = ``point`` over
    the points s_i of ``simplex``, or None when those points are affinely
    dependent or ``point`` is off their affine hull."""
    found = _barycentric_map(tuple(map(tuple, simplex)))
    if found is None:
        return None
    e, scale = found
    v = (1,) + tuple(point)
    coords = [sum(a * x for a, x in zip(row, v)) for row in e]
    k = len(simplex)
    if any(coords[k:]):
        return None
    return [Fraction(x, scale) for x in coords[:k]]


def in_convex_hull_caratheodory(point, points):
    """Is ``point`` in the convex hull of ``points``?

    Caratheodory: it is exactly when it is a convex combination of an
    affinely independent subset of the points, and then of one with r + 1
    points, r the affine rank of the set, since every affinely independent
    subset extends to one that large. So each affinely independent
    (r+1)-subset is tried, and nonnegative barycentric coordinates
    (``barycentric_fractions``) decide.
    """
    pts = [tuple(p) for p in points]
    if not pts:
        return False
    base = pts[0]
    r = rank_fractions([[x - b for x, b in zip(p, base)] for p in pts[1:]])
    for sub in combinations(pts, r + 1):
        lam = barycentric_fractions(sub, point)
        if lam is not None and all(x >= 0 for x in lam):
            return True
    return False


def lattice_isomorphic_bruteforce(p_points, q_points):
    """Affine lattice isomorphism of two full-dimensional point sets in the
    same dimension.

    Fixes the greedy leftmost affine frame of P and tries every ordered
    (d+1)-tuple of Q as its image: the linear part L = Q_frame P_frame^-1
    is solved over Fractions when its determinant det Q_frame / det P_frame
    is +-1, and accepted when it is integral and the affine map sends P
    onto Q.
    """
    if len(p_points) != len(q_points):
        return False
    d = len(p_points[0])
    if len(q_points[0]) != d:
        return False
    base = p_points[0]
    diffs = [[x - b for x, b in zip(pt, base)] for pt in p_points]
    chosen = []
    for i in range(1, len(p_points)):
        cand = chosen + [i]
        if rank_fractions([diffs[j] for j in cand]) == len(cand):
            chosen = cand
    if len(chosen) != d:
        raise ValueError("P is not full-dimensional")
    # columns of P_frame are the frame's difference vectors
    p_frame = [[diffs[j][k] for j in chosen] for k in range(d)]
    p_det = abs(det_cofactor(p_frame))
    # integral entries as ints: unimodular frames then need no Fraction
    # arithmetic per tuple
    p_inv = [[int(x) if x.denominator == 1 else x for x in row]
             for row in inverse_fractions(p_frame)]
    q_set = set(map(tuple, q_points))
    for frame in permutations(range(len(q_points)), d + 1):
        q0 = q_points[frame[0]]
        q_frame = [[q_points[j][k] - q0[k] for j in frame[1:]]
                   for k in range(d)]
        # det L = det Q_frame / det P_frame must be +-1
        if abs(det_cofactor(q_frame)) != p_det:
            continue
        lin = [[sum(q_frame[r][t] * p_inv[t][c] for t in range(d))
                for c in range(d)] for r in range(d)]
        if any(x.denominator != 1 for row in lin for x in row):
            continue
        lin = [[int(x) for x in row] for row in lin]
        image = {tuple(q0[r] + sum(lin[r][c] * (pt[c] - base[c])
                                   for c in range(d)) for r in range(d))
                 for pt in p_points}
        if image == q_set:
            return True
    return False
