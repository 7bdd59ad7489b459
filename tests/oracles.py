"""Independent reference implementations used to pin expected test values.

Everything here is deliberately naive (cofactor expansion, Fraction
elimination, BFS path walks) and shares no code with the package under
test. Inputs are plain lists.
"""

from fractions import Fraction
from itertools import combinations, permutations


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
    """Every order-m minor (m = row count) in {-1, 0, 1}, by cofactor
    expansion over every m-column subset."""
    m = len(rows_data)
    return all(
        -1 <= det_cofactor([[row[j] for j in cset] for row in rows_data]) <= 1
        for cset in combinations(range(ncols), m))


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
