"""Reference arithmetic and labelled input generators for the benchmark.

Nothing here imports ``tumax``: the determinant, the minor scan, the
network-matrix construction and every certificate re-check are written
out again, so a fault in the program cannot also hide in its own check.

Inputs carry labels that hold by construction, as the paper states them:

* a network matrix (tree-path columns) is totally unimodular (TU);
* a planted ``[[1, 1], [1, -1]]`` block has determinant -2, so a matrix
  holding one is not TU;
* the product of two standard simplices and the edge polytope of a
  bipartite graph are unimodular polytopes;
* the incidence matrix of a bipartite graph with one row of the second
  part removed is TU, of full row rank, and polytopal (the first part's
  rows sum to 1 on every column).
"""

from itertools import combinations


# -- exact arithmetic ---------------------------------------------------------

def det(rows):
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rank(rows):
    """Rank over the rationals (fraction-free elimination)."""
    a = [list(r) for r in rows]
    if not a:
        return 0
    ncols = len(a[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, len(a)):
            f, p = a[i][c], a[r][c]
            a[i] = [x * p - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == len(a):
            break
    return r


def submatrix(mat, rset, cset):
    return [[mat[i][j] for j in cset] for i in rset]


def transpose(mat):
    return [list(col) for col in zip(*mat)]


def matmul(a, b):
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def columns(mat):
    return [tuple(col) for col in zip(*mat)]


def tu_violation(mat):
    """First square minor outside {-1, 0, 1} as (rows, cols, det), or None."""
    if not mat:
        return None
    nr, nc = len(mat), len(mat[0])
    for k in range(1, min(nr, nc) + 1):
        for rset in combinations(range(nr), k):
            for cset in combinations(range(nc), k):
                d = det(submatrix(mat, rset, cset))
                if d not in (-1, 0, 1):
                    return rset, cset, d
    return None


def simplex_dets(points):
    """Determinants of every (d+1)-point simplex of full-dimensional points."""
    d = len(points[0])
    out = []
    for sub in combinations(points, d + 1):
        base = sub[0]
        out.append(det([[p[k] - base[k] for k in range(d)] for p in sub[1:]]))
    return out


def affine_rank(points):
    base = points[0]
    return rank([[p[k] - base[k] for k in range(len(base))] for p in points[1:]])


def h(m):
    """The paper's column bound: floor((m+1)^2 / 4), except h(5) = 10."""
    return 10 if m == 5 else (m + 1) * (m + 1) // 4


# -- certificate re-checks ----------------------------------------------------

def witness_ok(mat, rows, cols, value):
    """A reported violating minor: its determinant is ``value``, not in {-1,0,1}."""
    return value not in (-1, 0, 1) and det(submatrix(mat, rows, cols)) == value


def functional_ok(mat, f):
    """``f . M = 1`` on every column."""
    return (f is not None and len(f) == len(mat)
            and all(sum(a * b for a, b in zip(f, col)) == 1
                    for col in columns(mat)))


def round_trip_ok(mat, transform, normal, perm):
    """``R (I|B) P^T = M``, identity block, column sums 1, ``|det R| = 1``."""
    m = len(mat)
    if sorted(perm) != list(range(len(mat[0]))):
        return False
    if any(normal[i][j] != (i == j) for i in range(m) for j in range(m)):
        return False
    if any(sum(col) != 1 for col in columns(normal)):
        return False
    if abs(det(transform)) != 1:
        return False
    rebuilt = columns(matmul(transform, normal))
    orig = columns(mat)
    return all(rebuilt[k] == orig[j] for k, j in enumerate(perm))


# -- labelled constructions ---------------------------------------------------

def random_tree_arcs(rng, nvertices):
    """A random spanning tree on ``nvertices`` with random arc directions."""
    arcs = []
    for v in range(1, nvertices):
        u = rng.randrange(v)
        arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return arcs


def network_matrix(nvertices, tree_arcs, arcs):
    """Rows = tree arcs, columns = ``arcs``; column (s, t) holds +1 / -1 on
    the tree arcs of the s-t path crossed with / against their direction."""
    adj = [[] for _ in range(nvertices)]
    for idx, (a, b) in enumerate(tree_arcs):
        adj[a].append((b, idx))
        adj[b].append((a, idx))
    parent = [None] * nvertices
    parent[0] = (-1, -1)
    depth = [0] * nvertices
    order = [0]
    for v in order:
        for w, idx in adj[v]:
            if parent[w] is None:
                parent[w] = (v, idx)
                depth[w] = depth[v] + 1
                order.append(w)
    cols = []
    for s, t in arcs:
        col = [0] * len(tree_arcs)
        while s != t:
            if depth[s] >= depth[t]:
                up, idx = parent[s]
                col[idx] = 1 if tree_arcs[idx] == (s, up) else -1
                s = up
            else:
                up, idx = parent[t]
                col[idx] = 1 if tree_arcs[idx] == (up, t) else -1
                t = up
        cols.append(col)
    return transpose(cols) if cols else [[] for _ in tree_arcs]


def random_arcs(rng, nvertices, count):
    """``count`` arcs between distinct vertices."""
    out = []
    while len(out) < count:
        s, t = rng.randrange(nvertices), rng.randrange(nvertices)
        if s != t:
            out.append((s, t))
    return out


def random_network(rng, nrows, ncols):
    """A random nrows x ncols network matrix: TU by construction."""
    tree = random_tree_arcs(rng, nrows + 1)
    return network_matrix(nrows + 1, tree, random_arcs(rng, nrows + 1, ncols))


def plant_block(rng, mat):
    """Overwrite a random 2x2 block with [[1, 1], [1, -1]] (determinant -2)."""
    out = [list(r) for r in mat]
    i, j = sorted(rng.sample(range(len(out)), 2))
    k, l = sorted(rng.sample(range(len(out[0])), 2))
    out[i][k], out[i][l], out[j][k], out[j][l] = 1, 1, 1, -1
    return out


def simplex_product_points(a, b):
    """Vertices of the product of the standard a- and b-simplices."""
    def verts(k):
        return [tuple(int(i == j) for j in range(k)) for i in range(-1, k)]
    return [u + v for u in verts(a) for v in verts(b)]


def random_bipartite_edges(rng, na, nb, nedges):
    """A connected simple bipartite graph on parts {0..na-1}, {na..na+nb-1},
    as (first-part vertex, second-part vertex) edges in random order."""
    first, second = rng.randrange(na), na + rng.randrange(nb)
    rest = [v for v in range(na + nb) if v not in (first, second)]
    rng.shuffle(rest)
    placed = [first, second]
    edges = {(first, second)}
    for v in rest:
        u = rng.choice([w for w in placed if (w < na) != (v < na)])
        edges.add((min(u, v), max(u, v)))
        placed.append(v)
    all_edges = [(i, j) for i in range(na) for j in range(na, na + nb)]
    while len(edges) < min(nedges, len(all_edges)):
        edges.add(rng.choice(all_edges))
    edges = sorted(edges)
    rng.shuffle(edges)
    return edges


def incidence_minus_row(na, nb, edges):
    """Vertex-edge incidence matrix without the last vertex of the second part."""
    return [[int(v in e) for e in edges] for v in range(na + nb - 1)]


def complete_bipartite_minus_row(m):
    """The paper's extremal m-row matrix: K_{a,b} incidence with one row removed
    (a = b = (m+1)/2 for odd m, a = m/2, b = m/2 + 1 for even m)."""
    a, b = ((m + 1) // 2, (m + 1) // 2) if m % 2 else (m // 2, m // 2 + 1)
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return incidence_minus_row(a, b, edges)


def edge_polytope_points(nvertices, edges):
    return [tuple(int(v in e) for v in range(nvertices)) for e in edges]


def random_unimodular(rng, n, steps):
    """A random integer n x n matrix of determinant +-1 (elementary operations)."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        if n >= 2:
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-1, 1))
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        k = rng.randrange(n)
        if rng.random() < 0.3:
            u[k] = [-x for x in u[k]]
    rng.shuffle(u)
    return u


def map_points(points, lin, shift):
    return [tuple(sum(lin[r][c] * p[c] for c in range(len(p))) + shift[r]
                  for r in range(len(lin))) for p in points]


def with_ones_row(points):
    """Points as columns, with a row of ones appended (homogenization)."""
    return transpose([list(p) + [1] for p in points])


def shuffle_and_sign(rng, mat):
    """Row permutation, row signs and a column shuffle; each keeps total
    unimodularity, polytopality and distinct columns."""
    data = [list(r) for r in mat]
    rng.shuffle(data)
    data = [[-x for x in r] if rng.random() < 0.4 else r for r in data]
    cols = columns(data)
    rng.shuffle(cols)
    return transpose(cols)


def scramble(rng, mat):
    """``shuffle_and_sign`` plus one elementary row operation, which keeps
    full row rank, polytopality and unimodularity (but not always TU)."""
    data = shuffle_and_sign(rng, mat)
    if len(data) >= 2:
        i, j = rng.sample(range(len(data)), 2)
        c = rng.choice((-1, 1))
        data[i] = [x + c * y for x, y in zip(data[i], data[j])]
    return data
