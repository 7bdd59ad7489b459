"""Shared random-instance generators and kernel adapters for the test suite.

TU positives are produced through the BFS path oracle in ``oracles`` so
they do not depend on the package's own network-matrix construction.
"""

import random

from tumax import kernels
from tumax.matrix import IntMatrix

from oracles import network_column_bfs, random_tree_arcs


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


def max_tu_subset_walk(m, cands, **opts):
    """kernels.max_tu_subset on a list of candidate columns, shaped like
    the result of ``oracles.max_tu_subset_reference``."""
    flat = [x for c in cands for x in c]
    best, witness, nodes, complete = kernels.max_tu_subset(
        m, flat, len(cands), **opts)
    return best, list(witness), nodes, bool(complete)
