"""Shared random-instance generators and kernel adapters for the test suite.

TU positives are produced through the BFS path oracle in ``oracles`` so
they do not depend on the package's own network-matrix construction.
"""

import random

from tumax import kernels
from tumax.matrix import IntMatrix

from oracles import network_column_bfs, random_tree_arcs

# Small inputs whose HNF transforms outgrow 64 bits: the rows of a 6 x 7
# matrix that is not polytopal, and the columns of a 7 x 8 point set of
# affine rank 4.
OVERFLOW_POLYTOPAL_ROWS = (
    (-13, 8, -2, -13, 2, -13, 3), (9, -2, 12, 5, 12, 0, 12),
    (4, 8, -4, -5, -13, 10, -19), (-4, 3, -8, -2, -2, -2, -3),
    (-9, -18, 1, 5, 5, -10, 16), (-4, -13, -17, 17, -10, 8, -6))
OVERFLOW_POLYTOPE_POINTS = (
    (-2, 3, -1, -7, -6, 7, 3), (-3, -6, -2, -7, 1, 3, -4),
    (-5, 0, 10, 4, -4, 2, -4), (-9, 2, 0, -6, -3, 3, -2),
    (-5, -2, -4, -8, 1, 2, -2), (-1, 8, -4, -3, 1, -1, 6),
    (-6, -3, -3, -9, -1, 4, -3), (-5, -6, 0, -4, 3, 0, -6))


def random_unimodular(rng, n, steps):
    """An n x n integer matrix of determinant +-1: ``steps`` random
    elementary row operations and sign flips, then a row shuffle."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        if n >= 2:
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-1, 1))
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        if rng.random() < 0.3:
            k = rng.randrange(n)
            u[k] = [-x for x in u[k]]
    rng.shuffle(u)
    return IntMatrix.from_rows(u)


def far_image(rng, points):
    """``points`` under an upper unitriangular map with 40-bit entries and
    a shift near 2**61: a lattice-isomorphic copy whose coordinates fit
    64 bits but whose products and simplex frames do not."""
    d = len(points[0])
    u = [[int(i == j) if j <= i else rng.randint(-1 << 40, 1 << 40)
          for j in range(d)] for i in range(d)]
    shift = [rng.randint(1 << 60, 1 << 61) for _ in range(d)]
    return [tuple(sum(a * x for a, x in zip(row, p)) + s
                  for row, s in zip(u, shift)) for p in points]


def random_sign_matrix(rng, rows, cols):
    return IntMatrix.from_rows(
        [[rng.randint(-1, 1) for _ in range(cols)] for _ in range(rows)])


def random_network_tu(rng, nrows, ncols):
    """A TU nrows x ncols matrix built from tree-path columns."""
    nv = nrows + 1
    tree = random_tree_arcs(rng, nv)
    cols = []
    for _ in range(ncols):
        s = rng.randrange(nv)
        t = rng.randrange(nv)
        cols.append(network_column_bfs(nv, tree, s, t))
    return IntMatrix.from_columns(cols, rows=nrows)


def random_tu_matrix(rng, rows, cols):
    """Random TU matrix; mixes plain network columns with negations."""
    m = random_network_tu(rng, rows, cols)
    data = m.to_lists()
    for j in range(cols):
        if rng.random() < 0.3:
            for i in range(rows):
                data[i][j] = -data[i][j]
    return IntMatrix.from_rows(data)


def max_tu_subset_walk(cands, **opts):
    """kernels.max_tu_subset on a list of candidate columns, shaped like
    the result of ``oracles.max_tu_subset_reference``."""
    best, witness, nodes, complete = kernels.max_tu_subset(cands, **opts)
    return best, list(witness), nodes, bool(complete)


def packed_pair(minors, c, column):
    """The (pos, neg) pair of ``column`` beside the first c columns pushed
    into the ``_PackedMinors`` table ``minors``, built as the search walk
    builds it: the lone column's pair, then one probe per chosen column,
    each from the pair one level down. None when a probe fails."""
    terms = minors.terms(column)
    level = minors.single(terms)
    for j in range(1, c + 1):
        level = minors.probe(j, terms, level)
        if level is None:
            return None
    return level
