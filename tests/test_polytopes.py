"""polytope surface: hulls, unimodularity, isomorphism, classification."""

import random

import pytest

from tumax import kernels, polytopes
from tumax.errors import BudgetExceeded, PreconditionError, StructureError
from tumax.families import ex4_matrix, h, sporadic_5x10
from tumax.matrix import IntMatrix
from tumax.polytopes import (
    PointSet,
    affine_lattice_coordinates,
    classify_unimodular,
    complete_bipartite_edges,
    edge_polytope,
    fingerprint,
    is_unimodular_polytope,
    lattice_isomorphic,
    normalize_standard_form,
    simplex_product,
    vertex_bound_check,
    vertex_hull,
)

from oracles import lattice_isomorphic_bruteforce


def simplex(d):
    pts = [tuple([0] * d)]
    for i in range(d):
        e = [0] * d
        e[i] = 1
        pts.append(tuple(e))
    return PointSet.from_points(pts)


def test_vertex_hull_simplex_and_segment():
    hull = vertex_hull(simplex(3))
    assert len(hull.vertices.points) == 4
    assert hull.nonvertices == ()
    seg = PointSet.from_points([(0,), (1,), (2,)])
    hull = vertex_hull(seg)
    assert set(hull.vertices.points) == {(0,), (2,)}
    assert hull.nonvertices == ((1,),)


def test_vertex_hull_ex4_all_vertices():
    ps = PointSet.from_matrix_columns(ex4_matrix())
    hull = vertex_hull(ps)
    assert len(hull.vertices.points) == 10
    assert hull.nonvertices == ()
    # 0/1 input: the hull contains no other cube point
    assert set(hull.cube_points_in_hull) == set(ps.points)


def test_is_unimodular_polytope_examples():
    assert is_unimodular_polytope(simplex(4)).is_unimodular
    assert is_unimodular_polytope(PointSet.from_points([(1,), (2,)])).is_unimodular
    verdict = is_unimodular_polytope(PointSet.from_points([(-1,), (1,)]))
    assert not verdict.is_unimodular
    assert abs(verdict.witness[1]) == 2
    ex4 = PointSet.from_matrix_columns(ex4_matrix())
    assert is_unimodular_polytope(ex4).is_unimodular


def test_is_unimodular_polytope_preconditions():
    flat = PointSet.from_points([(0, 0), (1, 0)])  # not full-dimensional
    with pytest.raises(PreconditionError):
        is_unimodular_polytope(flat)
    not_convex = PointSet.from_points([(0,), (1,), (2,)])
    with pytest.raises(PreconditionError):
        is_unimodular_polytope(not_convex)
    # the message names the first non-vertex in point order
    not_convex = PointSet.from_points([(0,), (2,), (1,)])
    with pytest.raises(PreconditionError, match=r"\(1,\) is not a vertex"):
        is_unimodular_polytope(not_convex)


def test_unimodular_simplices_imply_convex_position():
    """A full-dimensional set whose (d+1)-subset determinants are all in
    {-1, 0, 1} has no point in the hull of the others, so
    is_unimodular_polytope needs no LP on positive inputs."""
    rng = random.Random(5)
    positives = 0
    for _ in range(3000):
        d = rng.randint(1, 3)
        n = rng.randint(d + 1, d + 5)
        pts = dict.fromkeys(tuple(rng.randint(-2, 2) for _ in range(d))
                            for _ in range(n))
        ps = PointSet.from_points(pts)
        if ps.affine_rank() != d:
            continue
        if kernels.unimodular_violation(ps.flat(), len(ps), d) is not None:
            continue
        positives += 1
        assert vertex_hull(ps).nonvertices == ()
    assert positives == 189


def test_classify_survivors_pass_both_hull_filters():
    """Every cube subset that passes classify's rank and determinant
    filters is in convex position and meets the cube only in itself."""
    survivors = {}
    for d, pruned in ((1, False), (2, False), (3, False), (4, True)):
        survivors[d] = 0
        for subset in polytopes._candidate_subsets(d, pruned):
            ps = PointSet(d, tuple(subset))
            if ps.affine_rank() != d or kernels.unimodular_violation(
                    ps.flat(), len(ps), d) is not None:
                continue
            survivors[d] += 1
            hull = vertex_hull(ps)
            assert hull.nonvertices == ()
            assert hull.cube_points_in_hull == ps.points
    assert survivors == {1: 1, 2: 2, 3: 7, 4: 81}


def test_edge_polytope_k22_and_single_edge():
    k22 = edge_polytope(4, {0, 1}, complete_bipartite_edges(2, 2))
    assert len(k22.points) == 4
    assert lattice_isomorphic(k22, simplex_product(1, 1))
    single = edge_polytope(2, {0}, [(0, 1)])
    assert len(single.points) == 1
    assert single.affine_rank() == 0
    with pytest.raises(StructureError):
        edge_polytope(4, {0, 1}, [(0, 1)])


def test_edge_polytope_k33_unimodular():
    k33 = edge_polytope(6, {0, 1, 2}, complete_bipartite_edges(3, 3))
    assert len(k33.points) == 9
    embedded = affine_lattice_coordinates(k33)
    assert embedded.dim == 4
    assert is_unimodular_polytope(embedded).is_unimodular


def test_simplex_product_counts():
    p33 = simplex_product(3, 3)
    assert (p33.dim, len(p33.points)) == (6, 16)
    assert len(p33.points) == (6 + 2) ** 2 // 4
    p43 = simplex_product(4, 3)
    assert (p43.dim, len(p43.points)) == (7, 20)
    p22 = simplex_product(2, 2)
    assert len(p22.points) == 9


def test_affine_lattice_coordinates_preserves_unimodularity():
    # lift the square to height 1: still the square after embedding
    lifted = PointSet.from_points([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
    emb = affine_lattice_coordinates(lifted)
    assert emb.dim == 2
    assert is_unimodular_polytope(emb).is_unimodular
    square = PointSet.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert lattice_isomorphic(lifted, square)


def test_lattice_isomorphic_basics():
    s = simplex(3)
    assert lattice_isomorphic(s, s)
    assert lattice_isomorphic(PointSet.from_points([(1,), (2,)]),
                              PointSet.from_points([(0,), (1,)]))
    assert not lattice_isomorphic(PointSet.from_points([(-1,), (1,)]),
                                  PointSet.from_points([(0,), (1,)]))
    assert not lattice_isomorphic(s, simplex(2))
    # equal area 3/2, but one edge of the first triangle has lattice length 3
    assert not lattice_isomorphic(
        PointSet.from_points([(3, 1), (0, 2), (3, 2)]),
        PointSet.from_points([(0, 1), (0, 2), (3, 0)]))


def test_lattice_isomorphic_random_transforms():
    rng = random.Random(70)
    base = simplex_product(1, 2)  # 6 vertices in dimension 3
    for _ in range(10):
        # random unimodular map: product of elementary operations
        mat = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        for _ in range(6):
            i, j = rng.sample(range(3), 2)
            c = rng.choice((-1, 1))
            for k in range(3):
                mat[i][k] += c * mat[j][k]
        shift = [rng.randint(-3, 3) for _ in range(3)]
        pts = [tuple(sum(mat[r][c] * p[c] for c in range(3)) + shift[r]
                     for r in range(3)) for p in base.points]
        rng.shuffle(pts)
        moved = PointSet.from_points(pts)
        assert lattice_isomorphic(base, moved)
        assert fingerprint(moved) == fingerprint(base)


def _classification_pairs(monkeypatch, d):
    """Every (class representative, candidate) pair that
    classify_unimodular(d) hands to lattice_isomorphic."""
    pairs = []
    real = polytopes.lattice_isomorphic

    def recording(p, q):
        pairs.append((p, q))
        return real(p, q)

    with monkeypatch.context() as patch:
        patch.setattr(polytopes, "lattice_isomorphic", recording)
        classify_unimodular(d)
    return pairs


def test_lattice_isomorphic_matches_oracle_on_classified_pairs(monkeypatch):
    pairs3 = _classification_pairs(monkeypatch, 3)
    pairs4 = [(p, q) for p, q in _classification_pairs(monkeypatch, 4)
              if len(p) <= 7]
    verdicts = {}
    for p, q in pairs3 + pairs4:
        expected = lattice_isomorphic_bruteforce(p.points, q.points)
        assert lattice_isomorphic(p, q) == expected, (p.points, q.points)
        key = (p.dim, len(p), expected)
        verdicts[key] = verdicts.get(key, 0) + 1
    # the fingerprint does not separate one pair of 6-point classes in d = 3
    assert verdicts.get((3, 6, False))
    assert verdicts.get((4, 7, True)) and verdicts.get((4, 7, False))


def test_lattice_isomorphic_matches_oracle_on_random_images():
    """Random point sets in a small box (so frames of volume > 1 occur)
    against a unimodular image of themselves, that image with one point
    moved, or an unrelated set."""
    rng = random.Random(71)
    verdicts = []

    def random_points(d, k):
        while True:
            pts = list({tuple(rng.randint(0, 3) for _ in range(d))
                        for _ in range(k)})
            if len(pts) == k and PointSet.from_points(pts).affine_rank() == d:
                return pts

    for _ in range(90):
        d = rng.choice((1, 2, 2, 3, 3, 4))
        pts = random_points(d, rng.randint(d + 1, d + 3))
        kind = rng.randrange(3)
        if kind == 2:
            image = random_points(d, len(pts))
        else:
            mat = [[int(i == j) for j in range(d)] for i in range(d)]
            for _ in range(2 * d if d > 1 else 0):
                i, j = rng.sample(range(d), 2)
                c = rng.choice((-1, 1))
                mat[i] = [a + c * b for a, b in zip(mat[i], mat[j])]
            shift = [rng.randint(-2, 2) for _ in range(d)]
            image = [tuple(sum(mat[r][c] * p[c] for c in range(d)) + shift[r]
                           for r in range(d)) for p in pts]
            rng.shuffle(image)
        if kind == 1:
            i = rng.randrange(len(image))
            moved = list(image[i])
            moved[rng.randrange(d)] += rng.choice((-1, 1))
            if tuple(moved) not in image:
                image[i] = tuple(moved)
        q = PointSet.from_points(image)
        if q.affine_rank() < d:
            continue
        expected = lattice_isomorphic_bruteforce(pts, image)
        assert lattice_isomorphic(PointSet.from_points(pts), q) == expected, \
            (pts, image)
        verdicts.append(expected)
    assert any(verdicts) and not all(verdicts)


def test_normalize_identity_and_sporadic_are_fixed_points():
    ident = IntMatrix.identity(4)
    res = normalize_standard_form(ident)
    assert res.matrix == ident
    assert res.transform == ident
    spor = sporadic_5x10()
    res = normalize_standard_form(spor)
    assert res.matrix == spor
    assert res.permutation == tuple(range(10))


def test_normalize_lifted_square():
    m = IntMatrix.from_columns([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
    res = normalize_standard_form(m)
    assert res.matrix.col(3) == (-1, 1, 1)
    assert all(sum(res.matrix.col(j)) == 1 for j in range(4))
    # round trip: R * (I|B) equals M up to the recorded column permutation
    rebuilt = res.transform.matmul(res.matrix)
    for k, j in enumerate(res.permutation):
        assert rebuilt.col(k) == m.col(j)


def test_normalize_preconditions():
    with pytest.raises(PreconditionError):
        normalize_standard_form(IntMatrix.from_rows([[1, 2], [0, 0]]))
    with pytest.raises(PreconditionError):
        normalize_standard_form(IntMatrix.from_columns([(1, 2), (2, 4)]))


def test_classification_low_dimensions():
    assert classify_unimodular(1).count == 1
    assert classify_unimodular(2).count == 2
    res3 = classify_unimodular(3)
    assert res3.count == 4
    assert max(c.vertex_count for c in res3.classes) == h(4)
    # unpruned enumeration is independent of the vertex-bound theorem
    for d in (1, 2, 3):
        assert classify_unimodular(d, pruned=False).count == \
            classify_unimodular(d).count


def test_classification_gating():
    with pytest.raises(BudgetExceeded):
        classify_unimodular(5)


def test_classification_classes_certify_and_meet_bound():
    res = classify_unimodular(3)
    for cls in res.classes:
        assert is_unimodular_polytope(cls.vertices).is_unimodular
        rep = vertex_bound_check(cls.vertices)
        assert rep.ok
        hull = vertex_hull(cls.vertices)
        assert set(hull.cube_points_in_hull) == set(cls.vertices.points)


def test_classification_equivalence_relation_d3():
    res = classify_unimodular(3)
    reps = [c.vertices for c in res.classes]
    for i, p in enumerate(reps):
        assert lattice_isomorphic(p, p)
        for j in range(i + 1, len(reps)):
            assert not lattice_isomorphic(p, reps[j])
            assert not lattice_isomorphic(reps[j], p)


def test_vertex_bound_check_tight_cases():
    ex4 = PointSet.from_matrix_columns(ex4_matrix())
    rep = vertex_bound_check(ex4)
    assert rep.ok and rep.tight and rep.bound == 10
    rep = vertex_bound_check(simplex_product(3, 3))
    assert rep.ok and rep.tight and rep.bound == 16
    rep = vertex_bound_check(simplex_product(1, 1))
    assert rep.ok and rep.tight and rep.bound == 4


def test_prepared_full_rank_matrices_span_unimodular_polytopes():
    """Forward translation: columns of a prepared TU matrix of full row
    rank are the vertex set of a unimodular polytope."""
    from tumax.families import bipartite_extremal
    from tumax.search import max_polytopal_tu_columns

    members = [bipartite_extremal(m) for m in (2, 3, 4, 6)]
    members.append(sporadic_5x10())
    members.extend(max_polytopal_tu_columns(m).witness for m in (3, 4))
    for m in members:
        assert m.rank() == m.rows
        ps = affine_lattice_coordinates(PointSet.from_matrix_columns(m))
        assert ps.dim == m.rows - 1
        # positive without an LP: unimodular simplices imply convex position
        verdict = is_unimodular_polytope(ps)
        assert verdict.is_unimodular
        assert len(ps.points) == m.cols


def test_cube_is_not_unimodular():
    cube = PointSet.from_points(
        [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    verdict = is_unimodular_polytope(cube)
    assert not verdict.is_unimodular
