"""The ``requests`` workload: a closed loop of ``tumax.cli.run`` calls.

One in-process client sends the next request as soon as the last one
returns. A pass is a fixed mix of request types and sizes; the seed picks
the random content of every input file and the order of the requests.
Each pass gets freshly generated inputs, so no input repeats within a
run. The mix runs no search and no lattice-isomorphism test.
"""

import json
import os
import random

import reference as ref
from op import Op

from tumax import cli

TU_SHAPES = ((3, 4), (4, 5), (4, 6), (5, 6), (5, 7), (6, 7), (6, 8), (7, 8),
             (7, 9))
GH_SHAPES = ((4, 8), (5, 10), (6, 12), (7, 14), (7, 16))
# (first part, second part, edges) of bipartite graphs; the incidence matrix
# without one row is (a + b - 1) x edges
BIPARTITE = ((2, 2, 4), (2, 3, 5), (3, 3, 7), (3, 4, 9), (4, 4, 12))
# simplex products of dimension a + b <= 5 (the vertex bound is known there)
SIMPLEX_PRODUCTS = ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (1, 4))
NEGATIVE_UNIMODULAR = ((4, 8), (5, 10), (6, 12), (7, 14))

# The inputs of `check tu` are these fixed network matrices under seeded row
# and column permutations and row signs: the seed changes every input file
# but not what a full minor scan of it costs, so the latency tail is the
# same on every seed.
_BASE_RNG = random.Random(20240)
TU_BASES = {shape: [ref.random_network(_BASE_RNG, *shape) for _ in range(3)]
            for shape in TU_SHAPES + GH_SHAPES}


class Mix:
    """Writes one pass worth of input files and builds its ops."""

    def __init__(self, rng, directory):
        self.rng = rng
        self.dir = directory
        self.n = 0
        self.ops = []

    def _path(self, ext):
        self.n += 1
        return os.path.join(self.dir, f"in{self.n}.{ext}")

    def matrix_file(self, mat):
        path = self._path("mat")
        ncols = len(mat[0]) if mat else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{len(mat)} {ncols}\n")
            fh.writelines(" ".join(map(str, row)) + "\n" for row in mat)
        return path

    def graph_file(self, nvertices, arcs):
        path = self._path("graph")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{nvertices} {len(arcs)}\n")
            fh.writelines(f"{a} {b}\n" for a, b in arcs)
        return path

    def json_file(self, data):
        path = self._path("json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return path

    def add(self, kind, argv, check):
        self.ops.append(Op(kind, "requests", lambda: cli.run(argv), check))

    # -- request builders ------------------------------------------------------

    def check_tu(self, index, shape, planted, method):
        bases = TU_BASES[shape]
        mat = ref.shuffle_and_sign(
            self.rng, bases[index // len(TU_SHAPES) % len(bases)])
        if planted:
            mat = ref.plant_block(self.rng, mat)
        argv = ["check", "tu", self.matrix_file(mat)]
        if method != "auto":
            argv += ["--method", method]

        def check(rep):
            res = rep.result
            if res["is_tu"] == planted or rep.exit_status != int(planted):
                return False
            w = res["witness"]
            if w is None:
                return not planted or res["method"] == "ghouila-houri"
            return ref.witness_ok(mat, w["rows"], w["cols"], w["minor"])
        self.add("check tu", argv, check)

    def bipartite(self, spec):
        na, nb, ne = spec
        return ref.incidence_minus_row(
            na, nb, ref.random_bipartite_edges(self.rng, na, nb, ne))

    def homogenized_product(self, ab):
        return ref.with_ones_row(ref.simplex_product_points(*ab))

    def unimodular_rows(self, mat):
        """Left-multiply by a random unimodular matrix: keeps full row rank,
        polytopality and unimodularity."""
        u = ref.random_unimodular(self.rng, len(mat), len(mat))
        return ref.matmul(u, mat)

    def check_unimodular(self, mat, label):
        def check(rep):
            return (rep.result["is_unimodular"] == label
                    and rep.exit_status == int(not label))
        self.add("check unimodular",
                 ["check", "unimodular", self.matrix_file(mat)], check)

    def not_unimodular(self, shape):
        """(I | network | e_i + e_j | e_i - e_j) under a unimodular row map:
        the planted pair with the other unit columns has determinant +-2."""
        m, n = shape
        net = ref.random_network(self.rng, m, n - m - 2)
        i, j = self.rng.sample(range(m), 2)
        plus = [int(r in (i, j)) for r in range(m)]
        minus = [int(r == i) - int(r == j) for r in range(m)]
        cols = ([tuple(int(r == c) for r in range(m)) for c in range(m)]
                + ref.columns(net) + [tuple(plus), tuple(minus)])
        self.rng.shuffle(cols)
        return self.unimodular_rows(ref.transpose(cols))

    def check_polytopal(self, mat, label):
        def check(rep):
            res = rep.result
            if res["polytopal"] != label or rep.exit_status != int(not label):
                return False
            if not label:
                return res["functional"] is None
            return ref.functional_ok(mat, res["functional"])
        self.add("check polytopal",
                 ["check", "polytopal", self.matrix_file(mat)], check)

    def check_prepared(self, mat, label):
        def check(rep):
            return (rep.result["prepared"] == label
                    and rep.exit_status == int(not label))
        self.add("check prepared",
                 ["check", "prepared", self.matrix_file(mat)], check)

    def _random_affine(self, points, scale):
        """Image of full-dimensional points under x -> U D V x + t with U, V
        unimodular and D = diag(scale, 1, ..., 1)."""
        d = len(points[0])
        u = ref.random_unimodular(self.rng, d, d)
        v = ref.random_unimodular(self.rng, d, d)
        dmat = [[(scale if i == 0 else 1) if i == j else 0 for j in range(d)]
                for i in range(d)]
        lin = ref.matmul(ref.matmul(u, dmat), v)
        shift = [self.rng.randint(-2, 2) for _ in range(d)]
        return ref.map_points(points, lin, shift)

    def polytope_points(self, index, unimodular):
        """Points of a unimodular polytope (a simplex product under a
        unimodular affine map, or a bipartite edge polytope), or of a
        non-unimodular one (a simplex product under a map of determinant 2)."""
        if unimodular and index % 3 == 2:
            na, nb, ne = BIPARTITE[index % len(BIPARTITE)]
            return ref.edge_polytope_points(
                na + nb, ref.random_bipartite_edges(self.rng, na, nb, ne))
        ab = SIMPLEX_PRODUCTS[index % len(SIMPLEX_PRODUCTS)]
        return self._random_affine(ref.simplex_product_points(*ab),
                                   1 if unimodular else 2)

    def check_unimodular_polytope(self, points, label):
        mat = ref.transpose(points)
        dim = ref.affine_rank(points)

        def check(rep):
            res = rep.result
            if (res["is_unimodular_polytope"] != label
                    or rep.exit_status != int(not label)
                    or res["dimension"] != dim
                    or res["vertex_count"] != len(points)):
                return False
            w = res["witness"]
            if label:
                return w is None
            # negatives are full-dimensional, so the witness indexes the
            # input points and its determinant is theirs
            sub = [points[i] for i in w["points"]]
            return (w["determinant"] not in (-1, 0, 1)
                    and ref.det([[p[k] - sub[0][k] for k in range(dim)]
                                 for p in sub[1:]]) == w["determinant"])
        self.add("check unimodular-polytope",
                 ["check", "unimodular-polytope", self.matrix_file(mat)],
                 check)

    def vertex_bound(self, points):
        mat = ref.transpose(points)
        dim = ref.affine_rank(points)
        bound = 10 if dim == 4 else ref.h(dim + 1)

        def check(rep):
            res = rep.result
            return (rep.exit_status == 0 and res["ok"] is True
                    and res["dimension"] == dim
                    and res["vertex_count"] == len(points)
                    and res["bound"] == bound
                    and res["tight"] == (len(points) == bound))
        self.add("verify vertex-bound",
                 ["verify", "vertex-bound", self.matrix_file(mat)], check)

    def network_bounds(self, nvertices, narcs, applicable):
        tree = ref.random_tree_arcs(self.rng, nvertices)
        if applicable:
            arcs = self._odd_positive_arcs(nvertices, tree, narcs)
        else:
            arcs = ref.random_arcs(self.rng, nvertices, narcs)
        mat = ref.network_matrix(nvertices, tree, arcs)
        cols = ref.columns(mat)
        sums = [sum(c) for c in cols]
        is_applicable = (len(set(cols)) == len(cols)
                         and all(s > 0 and s % 2 for s in sums))
        n0, na = len(tree), len(arcs)
        rows = {tuple(r) for r in mat if sum(r) > 0}
        odd_rows = {r for r in rows if sum(r) % 2}

        def check(rep):
            col, tr = rep.result["column_bound"], rep.result["transpose_rows"]
            if rep.exit_status != 0 or col["applicable"] != is_applicable:
                return False
            if (col["num_cols"], col["num_tree_arcs"]) != (na, n0):
                return False
            if is_applicable and (col["bipartite"] is not True
                                  or col["ok"] is not True):
                return False
            return (tr["distinct_pos_rows"] == len(rows)
                    and tr["distinct_pos_odd_rows"] == len(odd_rows))
        self.add("network bounds",
                 ["network", "bounds", self.graph_file(nvertices, tree),
                  self.graph_file(nvertices, arcs)], check)

    def _odd_positive_arcs(self, nvertices, tree, count):
        """Distinct arcs whose tree paths have a positive odd signed length."""
        arcs, seen = [], set()
        candidates = [(s, t) for s in range(nvertices) for t in range(nvertices)
                      if s != t]
        self.rng.shuffle(candidates)
        for arc in candidates:
            col = tuple(ref.network_matrix(nvertices, tree, [arc])
                        [i][0] for i in range(len(tree)))
            if sum(col) > 0 and sum(col) % 2 and col not in seen:
                seen.add(col)
                arcs.append(arc)
                if len(arcs) == count:
                    break
        return arcs

    def sum_request(self, kind):
        spec, composed = SUM_BUILDERS[kind](self.rng)
        sub = {"one-sum": "one", "two-sum": "two", "three-sum": "three",
               "delta-sum": "delta"}[kind]

        def check(rep):
            return (rep.exit_status == 0 and rep.result["matrix"] == composed
                    and rep.result["report"]["kind"] == kind)
        self.add(f"sum {sub}", ["sum", sub, self.json_file(spec)], check)


# -- sum specifications (factors are network matrices, hence TU) ---------------

def _block(tl, tr, bl, br):
    return [a + b for a, b in zip(tl, tr)] + [a + b for a, b in zip(bl, br)]


def _outer(col, row):
    return [[c * r for r in row] for c in col]


def _zeros(r, c):
    return [[0] * c for _ in range(r)]


def _one_sum(rng):
    a = ref.random_network(rng, rng.randint(2, 4), rng.randint(2, 4))
    b = ref.random_network(rng, rng.randint(2, 4), rng.randint(2, 4))
    composed = _block(a, _zeros(len(a), len(b[0])), _zeros(len(b), len(a[0])),
                      b)
    return {"kind": "one-sum", "A": a, "B": b}, composed


def _two_sum(rng):
    m1, n1, m2, n2 = (rng.randint(2, 4) for _ in range(4))
    f1 = ref.random_network(rng, m1, n1 + 1)
    a, u = [r[:n1] for r in f1], [r[n1] for r in f1]
    f2 = ref.random_network(rng, m2 + 1, n2)
    v, b = f2[0], f2[1:]
    composed = _block(a, _outer(u, v), _zeros(m2, n1), b)
    return {"kind": "two-sum", "A": a, "B": b, "u": u, "v": v}, composed


def _triangle(rng, narcs):
    """Columns of a directed triangle on the path 0-1-...-narcs; they sum
    to zero."""
    path = [(i, i + 1) for i in range(narcs)]
    a, b, c = sorted(rng.sample(range(narcs + 1), 3))
    tri = ref.network_matrix(narcs + 1, path, [(a, b), (b, c), (c, a)])
    return path, [[r[k] for r in tri] for k in range(3)]


def _three_sum(rng):
    m1, n1 = rng.randint(3, 4), rng.randint(1, 3)
    path1, (u1, u2, u3) = _triangle(rng, m1)
    a = ref.network_matrix(m1 + 1, path1, ref.random_arcs(rng, m1 + 1, n1))
    n2, m2 = rng.randint(3, 4), rng.randint(1, 3)
    path2, (v1, v2, v3) = _triangle(rng, n2)
    b = ref.transpose(ref.network_matrix(n2 + 1, path2,
                                         ref.random_arcs(rng, n2 + 1, m2)))
    # the relative minus sign keeps the shared triangle coherently signed
    c = [[u1[i] * v1[j] - u2[i] * v2[j] for j in range(n2)]
         for i in range(m1)]
    composed = _block(a, c, _zeros(m2, n1), b)
    spec = {"kind": "three-sum", "A": a, "B": b, "C": c, "u1": u1, "u2": u2,
            "u3": u3, "v1": v1, "v2": v2, "v3": v3}
    return spec, composed


def _pendant_factor(rng, nrows, ncols, x, pendant_first):
    """Network matrix whose last two columns are (w; 0) and (w; x) on the
    pendant row: arcs s -> attach and s -> z, with z hung off attach."""
    nv = nrows + 1
    base = ref.random_tree_arcs(rng, nv)
    attach, z = rng.randrange(nv), nv
    pend = (attach, z) if x == 1 else (z, attach)
    tree = [pend] + base if pendant_first else base + [pend]
    s = rng.choice([v for v in range(nv) if v != attach])
    arcs = ref.random_arcs(rng, nv + 1, ncols) + [(s, attach), (s, z)]
    return ref.network_matrix(nv + 1, tree, arcs)


def _delta_sum(rng):
    x = rng.choice((-1, 1))
    m1, n1, m2, n2 = (rng.randint(2, 3) for _ in range(4))
    f1 = _pendant_factor(rng, m1, n1, x, pendant_first=False)
    a = [r[:n1] for r in f1[:m1]]
    u = f1[m1][:n1]
    up = [r[n1] for r in f1[:m1]]
    f2 = _pendant_factor(rng, m2, n2, x, pendant_first=True)
    v = f2[0][:n2]
    b = [r[:n2] for r in f2[1:]]
    vp = [r[n2] for r in f2[1:]]
    composed = _block(a, _outer(up, v), _outer(vp, u), b)
    spec = {"kind": "delta-sum", "A": a, "B": b, "u": u, "v": v,
            "u_prime": up, "v_prime": vp, "x": x}
    return spec, composed


SUM_BUILDERS = {"one-sum": _one_sum, "two-sum": _two_sum,
                "three-sum": _three_sum, "delta-sum": _delta_sum}


class Workload:
    def __init__(self, seed, directory):
        self.seed = seed
        self.dir = directory

    def warm_up_ops(self):
        return warm_up_ops(random.Random(self.seed * 1000 + 999),
                           os.path.join(self.dir, "warm"))

    def pass_ops(self, k):
        return build_pass(random.Random(self.seed * 1000 + k),
                          os.path.join(self.dir, f"pass{k}"))


def build_pass(rng, directory):
    """One pass: every request type in a fixed number and size spread, with
    seeded content, in seeded order."""
    os.makedirs(directory, exist_ok=True)
    mix = Mix(rng, directory)
    for i in range(18):
        shape = TU_SHAPES[i % len(TU_SHAPES)]
        mix.check_tu(i, shape, planted=False, method="auto")
        mix.check_tu(i, shape, planted=True, method="auto")
    for i in range(6):
        shape = GH_SHAPES[i % len(GH_SHAPES)]
        mix.check_tu(i, shape, planted=i % 2 == 1, method="auto")
        mix.check_tu(i, TU_SHAPES[i % len(TU_SHAPES)], planted=i % 2 == 1,
                     method="gh")
    for i in range(6):
        if i % 2:
            mat = mix.bipartite(BIPARTITE[i % len(BIPARTITE)])
        else:
            mat = mix.homogenized_product(
                SIMPLEX_PRODUCTS[i % len(SIMPLEX_PRODUCTS)])
        mix.check_unimodular(mix.unimodular_rows(mat), True)
        mix.check_unimodular(
            mix.not_unimodular(NEGATIVE_UNIMODULAR[i % len(NEGATIVE_UNIMODULAR)]),
            False)
    for i in range(6):
        if i % 2:
            mat = mix.bipartite(BIPARTITE[i % len(BIPARTITE)])
        else:
            mat = mix.homogenized_product(
                SIMPLEX_PRODUCTS[i % len(SIMPLEX_PRODUCTS)])
        mat = mix.unimodular_rows(mat)
        mix.check_polytopal(mat, True)
        neg = [row + [-row[0]] for row in mat]
        mix.check_polytopal(neg, False)
    for i in range(5):
        mat = ref.shuffle_and_sign(rng, mix.bipartite(BIPARTITE[i % len(BIPARTITE)]))
        mix.check_prepared(mat, True)
        j = rng.randrange(len(mat[0]))
        dup = ref.shuffle_and_sign(rng, [row + [row[j]] for row in mat])
        mix.check_prepared(dup, False)
    for i in range(5):
        mix.check_unimodular_polytope(mix.polytope_points(i, True), True)
        mix.check_unimodular_polytope(mix.polytope_points(i, False), False)
    for i in range(6):
        mix.vertex_bound(mix.polytope_points(i, True))
    for i in range(10):
        mix.network_bounds(4 + i % 5, 3 + i % 7, applicable=i % 2 == 0)
    for i in range(3):
        for kind in SUM_BUILDERS:
            mix.sum_request(kind)
    rng.shuffle(mix.ops)
    return mix.ops


def warm_up_ops(rng, directory):
    """One small request of each type, run before the timed passes."""
    os.makedirs(directory, exist_ok=True)
    mix = Mix(rng, directory)
    mix.check_tu(0, (3, 4), planted=False, method="auto")
    mix.check_tu(1, (3, 4), planted=True, method="gh")
    mix.check_unimodular(mix.homogenized_product((1, 1)), True)
    mix.check_polytopal(mix.homogenized_product((1, 1)), True)
    mix.check_prepared(mix.bipartite(BIPARTITE[0]), True)
    mix.check_unimodular_polytope(mix.polytope_points(0, True), True)
    mix.vertex_bound(mix.polytope_points(0, True))
    mix.network_bounds(4, 3, applicable=True)
    for kind in SUM_BUILDERS:
        mix.sum_request(kind)
    return mix.ops
