"""Random valid SumSpec generators for the composition tests.

Rejection sampling over raw random matrices essentially never satisfies
the TU preconditions, so every generator here builds its factors as
network matrices (tree-path columns), which are TU by construction:

* 2-sums split a network matrix into (A|u) and take (v^T;B) from another;
* 3-sums use directed-triangle columns on a path tree, giving u1+u2+u3=0
  (and transposed for the v side) with glue C = u1 v1^T + u2 v2^T;
* delta-sums hang a pendant arc off a tree so two digraph arcs produce
  the duplicated (u';0),(u';x) column pair of the factor shape.
"""

import random

from tumax.graphs import ArcGraph, network_matrix
from tumax.matrix import IntMatrix
from tumax.sums import SumSpec

from oracles import matmul, random_tree_arcs


def _random_digraph_arcs(rng, n, count):
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


def _network(rng, nrows, ncols):
    nv = nrows + 1
    tree = ArcGraph.from_arcs(nv, random_tree_arcs(rng, nv))
    d = ArcGraph.from_arcs(nv, _random_digraph_arcs(rng, nv, ncols))
    return network_matrix(tree, d)


def random_one_sum_spec(rng):
    a = _network(rng, rng.randint(1, 3), rng.randint(1, 3))
    b = _network(rng, rng.randint(1, 3), rng.randint(1, 3))
    return SumSpec("one-sum", a, b)


def random_two_sum_spec(rng):
    m1, n1 = rng.randint(1, 3), rng.randint(1, 3)
    f1 = _network(rng, m1, n1 + 1)
    a = f1.submatrix(range(m1), range(n1))
    u = f1.col(n1)
    m2, n2 = rng.randint(1, 3), rng.randint(1, 4)
    f2 = _network(rng, m2 + 1, n2)
    v = f2.row(0)
    b = f2.submatrix(range(1, m2 + 1), range(n2))
    return SumSpec("two-sum", a, b, u=u, v=v)


def _interval_triple(rng, narcs):
    """Directed-triangle columns on the path 0-1-...-narcs."""
    tree = ArcGraph.from_arcs(narcs + 1, [(i, i + 1) for i in range(narcs)])
    cuts = sorted(rng.sample(range(narcs + 1), 3))
    a, b, c = cuts
    d = ArcGraph.from_arcs(narcs + 1, [(a, b), (b, c), (c, a)])
    m = network_matrix(tree, d)
    return tree, m.col(0), m.col(1), m.col(2)


def random_three_sum_spec(rng):
    m1 = rng.randint(3, 4)
    n1 = rng.randint(1, 3)
    tree1, u1, u2, u3 = _interval_triple(rng, m1)
    d1 = ArcGraph.from_arcs(m1 + 1, _random_digraph_arcs(rng, m1 + 1, n1))
    a = network_matrix(tree1, d1)

    n2 = rng.randint(3, 4)
    m2 = rng.randint(1, 3)
    tree2, v1, v2, v3 = _interval_triple(rng, n2)
    d2 = ArcGraph.from_arcs(n2 + 1, _random_digraph_arcs(rng, n2 + 1, m2))
    b = network_matrix(tree2, d2).transpose()

    # the relative minus sign keeps the shared triangle coherently signed;
    # with + the composition can acquire +-2 minors even though both
    # factors are TU (see test_three_sum_incoherent_glue_is_not_tu)
    glue = IntMatrix.from_rows(
        [[u1[i] * v1[j] - u2[i] * v2[j] for j in range(n2)] for i in range(m1)])
    return SumSpec("three-sum", a, b, u1=u1, u2=u2, u3=u3,
                   v1=v1, v2=v2, v3=v3, c=glue)


def _delta_factor(rng, nrows, ncols, x, row_order):
    """Network factor with a pendant arc providing the duplicated column pair.

    Returns (matrix, block, edge_vec, dup_vec) where ``matrix`` has the
    pendant row first or last according to ``row_order`` and its last two
    columns are (dup_vec; 0) and (dup_vec; x) up to that row order.
    """
    nv = nrows + 1
    base = random_tree_arcs(rng, nv)
    attach = rng.randrange(nv)
    z = nv
    pend = (attach, z) if x == 1 else (z, attach)
    if row_order == "last":
        tree_arcs = base + [pend]
    else:
        tree_arcs = [pend] + base
    tree = ArcGraph.from_arcs(nv + 1, tree_arcs)
    arcs = _random_digraph_arcs(rng, nv + 1, ncols)
    s = rng.choice([v for v in range(nv) if v != attach])
    arcs.append((s, attach))
    arcs.append((s, z))
    d = ArcGraph.from_arcs(nv + 1, arcs)
    return network_matrix(tree, d)


def random_delta_sum_spec(rng):
    x = rng.choice((-1, 1))
    m1 = rng.randint(2, 3)
    n1 = rng.randint(2, 3)
    f1 = _delta_factor(rng, m1, n1, x, "last")
    assert f1.entries[m1][n1] == 0 and f1.entries[m1][n1 + 1] == x
    a = f1.submatrix(range(m1), range(n1))
    u = tuple(f1.entries[m1][:n1])
    u_prime = f1.col(n1)[:m1]
    assert f1.col(n1 + 1)[:m1] == u_prime

    m2 = rng.randint(2, 3)
    n2 = rng.randint(2, 3)
    f2 = _delta_factor(rng, m2, n2, x, "first")
    assert f2.entries[0][n2] == 0 and f2.entries[0][n2 + 1] == x
    v = tuple(f2.entries[0][:n2])
    b = f2.submatrix(range(1, m2 + 1), range(n2))
    v_prime = f2.col(n2)[1:]
    assert f2.col(n2 + 1)[1:] == v_prime
    return SumSpec("delta-sum", a, b, u=u, v=v,
                   u_prime=u_prime, v_prime=v_prime, x=x)


GENERATORS = {
    "one-sum": random_one_sum_spec,
    "two-sum": random_two_sum_spec,
    "three-sum": random_three_sum_spec,
    "delta-sum": random_delta_sum_spec,
}


def random_spec(rng, kind):
    return GENERATORS[kind](rng)


def functional_values(f, matrix):
    """f * matrix as a tuple, by the oracle product."""
    return tuple(matmul([f], matrix.entries)[0])


def random_certificate(rng, matrix):
    """A nonzero int tuple f and the w = f * matrix it induces."""
    while True:
        f = tuple(rng.randint(-3, 3) for _ in range(matrix.rows))
        if any(f):
            return f, functional_values(f, matrix)
