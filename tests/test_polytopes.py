"""polytope surface: hulls, unimodularity, isomorphism, classification."""

import random
import sys
import tracemalloc
from itertools import combinations, permutations, product
from math import gcd

import pytest

from tumax import _pykernels, kernels, linsolve, polytopes
from tumax.errors import (
    BudgetExceeded,
    PreconditionError,
    UsageError,
)
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

from helpers import OVERFLOW_POLYTOPE_POINTS, far_image, random_unimodular
from oracles import (
    det_cofactor,
    in_convex_hull_caratheodory,
    inverse_fractions,
    is_tu_by_minor_table,
    is_unimodular_maximal_minors,
    lattice_isomorphic_bruteforce,
    matmul,
    rank_fractions,
)


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


def _affine_rank(points):
    """Dimension of the affine hull, by Fraction elimination."""
    return rank_fractions([[x - b for x, b in zip(p, points[0])]
                           for p in points[1:]])


def _first_violating_simplex(points):
    """The first (d+1)-subset in ``combinations`` order whose simplex
    determinant (cofactor expansion) is outside {-1, 0, 1}, with it."""
    d = len(points[0])
    for sub in combinations(range(len(points)), d + 1):
        base = points[sub[0]]
        det = det_cofactor([[x - b for x, b in zip(points[i], base)]
                            for i in sub[1:]])
        if not -1 <= det <= 1:
            return sub, det
    return None


def _expected_polytope_verdict(points):
    """What is_unimodular_polytope must answer on a point set of its
    dimension, from the oracles alone: ("verdict", is_unimodular,
    witness), or ("error", the PreconditionError text)."""
    d = len(points[0])
    r = _affine_rank(points)
    if r != d:
        return ("error", f"point set is not full-dimensional "
                         f"(affine rank {r} < {d})")
    homogenized = [[1] * len(points)] + [list(c) for c in zip(*points)]
    if is_unimodular_maximal_minors(homogenized, len(points)):
        return ("verdict", True, None)
    nonvertex = next(_oracle_nonvertices(points), None)
    if nonvertex is not None:
        return ("error", f"point set is not in convex position: "
                         f"{nonvertex} is not a vertex")
    return ("verdict", False, _first_violating_simplex(points))


def _polytope_verdict(ps):
    """is_unimodular_polytope(ps) in the form of
    ``_expected_polytope_verdict``."""
    try:
        verdict = is_unimodular_polytope(ps)
    except PreconditionError as exc:
        return ("error", str(exc))
    return ("verdict", verdict.is_unimodular, verdict.witness)


def _seeded_point_sets(rng):
    """Point sets of dimension 0..4: boxes, cube subsets and flattened
    sets in their own dimension, and lifted copies brought back through
    ``affine_lattice_coordinates``."""
    for _ in range(250):
        d = rng.choice((0, 1, 1, 2, 2, 3, 3, 4, 4))
        n = rng.randint(d + 1, d + 5)
        kind = rng.choice(("box", "cube", "flat"))
        if kind == "box":
            pts = {tuple(rng.randint(-2, 2) for _ in range(d))
                   for _ in range(n)}
        elif kind == "cube":
            pts = {tuple(rng.randint(0, 1) for _ in range(d))
                   for _ in range(n)}
        elif d < 2:
            pts = {(0,) * d}
        else:
            # affine rank below d: the last coordinate repeats the one
            # before it
            heads = [tuple(rng.randint(-1, 1) for _ in range(d - 1))
                     for _ in range(n)]
            pts = {p + p[-1:] for p in heads}
        pts = sorted(pts)
        rng.shuffle(pts)
        yield PointSet.from_points(pts)
        if rng.random() < 0.3:
            lift = d + rng.randint(1, 2)
            u = random_unimodular(rng, lift, 3 * lift).entries
            shift = [rng.randint(-3, 3) for _ in range(lift)]
            lifted = [tuple(sum(a * x for a, x in zip(u[k], p + (0,) * (
                lift - d))) + shift[k] for k in range(lift)) for p in pts]
            yield affine_lattice_coordinates(PointSet.from_points(lifted))


def test_is_unimodular_polytope_matches_oracles_on_seeded_sets():
    """Verdict, witness and precondition error agree with the maximal
    minors of the homogenized matrix, the first violating simplex by
    cofactor expansion and the Caratheodory hull oracle, on every
    dimension up to 4 (0 and 1 included) and on lifted inputs."""
    outcomes = {}
    for ps in _seeded_point_sets(random.Random(11)):
        expected = _expected_polytope_verdict(ps.points)
        assert _polytope_verdict(ps) == expected, ps.points
        if expected[0] == "verdict":
            key = (ps.dim, expected[1])
        else:
            key = (ps.dim, "flat" if "full-dimensional" in expected[1]
                   else "hull")
        outcomes[key] = outcomes.get(key, 0) + 1
    assert outcomes == {
        (0, True): 61,
        (1, True): 22, (1, False): 5, (1, "flat"): 29, (1, "hull"): 20,
        (2, True): 20, (2, False): 10, (2, "flat"): 16, (2, "hull"): 18,
        (3, True): 15, (3, False): 26, (3, "flat"): 20, (3, "hull"): 4,
        (4, True): 11, (4, False): 23, (4, "flat"): 20, (4, "hull"): 4}


def test_is_unimodular_polytope_on_complete_bipartite_edge_polytopes():
    """Every K_{a,b} edge polytope up to K_{4,5} is unimodular (a
    bipartite incidence matrix is TU), and the maximal minors of its
    homogenized embedded vertex matrix agree."""
    for a in range(1, 5):
        for b in range(a, 6):
            ps = affine_lattice_coordinates(edge_polytope(
                a + b, range(a), complete_bipartite_edges(a, b)))
            assert ps.dim == a + b - 2
            assert _polytope_verdict(ps) == ("verdict", True, None)
            homogenized = ([[1] * len(ps.points)]
                           + [list(c) for c in zip(*ps.points)])
            assert is_unimodular_maximal_minors(homogenized, a * b)


def test_is_unimodular_polytope_runs_one_row_hnf(monkeypatch):
    """A positive takes one row HNF of the homogenized matrix and no
    simplex scan, rank or LP; a negative adds one ordered scan, for its
    witness, and one LP per point for convex position."""
    k45 = affine_lattice_coordinates(edge_polytope(
        9, range(4), complete_bipartite_edges(4, 5)))
    cube = PointSet.from_points(list(product((0, 1), repeat=3)))
    for ps, expected in ((k45, {"row_hnf": 1}),
                         (simplex(4), {"row_hnf": 1}),
                         (cube, {"row_hnf": 1, "unimodular_violation": 1,
                                 "in_convex_hull": 8})):
        counts = {}
        _counting(monkeypatch, linsolve, "row_hnf", counts)
        _counting(monkeypatch, kernels, "unimodular_violation", counts)
        _counting(monkeypatch, kernels, "rank_entries", counts)
        _counting(monkeypatch, polytopes, "in_convex_hull", counts)
        is_unimodular_polytope(ps)
        monkeypatch.undo()
        assert counts == expected


def test_simplex_product_past_the_signing_budget_exits_at_once(monkeypatch):
    """Delta_1 x Delta_21 (d = 22, 44 points) is unimodular, but its
    homogenized 23 x 44 matrix leaves a 23 x 21 N for Ghouila-Houri, one
    row past its budget on its smaller side: BudgetExceeded before any
    simplex is scanned, instead of a scan of C(44, 23) determinants. The
    text names the input as the caller gave it, and only the Ghouila-Houri
    budget."""
    counts = {}
    _counting(monkeypatch, kernels, "unimodular_violation", counts)
    with pytest.raises(BudgetExceeded, match=(
            r"^44 points in dimension 22: its non-pivot block N has 21 rows "
            r"on its smaller side, more than the Ghouila-Houri budget admits "
            r"\(rows <= 20\)$")):
        is_unimodular_polytope(simplex_product(1, 21))
    assert counts == {}


def _oracle_nonvertices(points):
    """The points in the hull of the others, in point order, by the
    Caratheodory oracle."""
    return (p for i, p in enumerate(points)
            if in_convex_hull_caratheodory(p, points[:i] + points[i + 1:]))


def _oracle_cube_points_in_hull(points):
    """The 0/1 points in the hull of 0/1 ``points``, in cube order, by the
    Caratheodory oracle."""
    return [q for q in product((0, 1), repeat=len(points[0]))
            if q in points or in_convex_hull_caratheodory(q, points)]


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
        if _affine_rank(ps.points) != d:
            continue
        if kernels.unimodular_violation(ps.points) is not None:
            continue
        positives += 1
        assert next(_oracle_nonvertices(ps.points), None) is None
    assert positives == 189


def test_classify_survivors_pass_both_hull_filters():
    """Every cube subset that passes classify's rank and determinant
    filters is in convex position and meets the cube only in itself."""
    survivors = {}
    for d in (1, 2, 3, 4):
        survivors[d] = 0
        cube = list(product((0, 1), repeat=d))
        for idx in polytopes._candidate_subsets(d):
            ps = PointSet(d, tuple(cube[i] for i in idx))
            if (_affine_rank(ps.points) != d
                    or kernels.unimodular_violation(ps.points) is not None):
                continue
            survivors[d] += 1
            assert next(_oracle_nonvertices(ps.points), None) is None
            assert _oracle_cube_points_in_hull(ps.points) == list(ps.points)
    assert survivors == {1: 1, 2: 2, 3: 7, 4: 81}


def test_edge_polytope_k22_and_single_edge():
    k22 = edge_polytope(4, {0, 1}, complete_bipartite_edges(2, 2))
    assert len(k22.points) == 4
    assert lattice_isomorphic(k22, simplex_product(1, 1))
    single = edge_polytope(2, {0}, [(0, 1)])
    assert len(single.points) == 1
    assert _affine_rank(single.points) == 0
    with pytest.raises(PreconditionError, match=r"^edge \(0,1\) stays inside "
                                                r"one part"):
        edge_polytope(4, {0, 1}, [(0, 1)])


@pytest.mark.parametrize("nvertices, part_a, edges, message", [
    (3, [0], [(0, 1, 2)], "edge must be a pair of vertices, got (0, 1, 2)"),
    (3, [0], [(0, 1.0)], "edge must hold integers, got 1.0"),
    (3, [0], [5], "edge must be a sequence of integers, got 5"),
    (3, [0], 5, "edges must be a sequence of vertex pairs, got 5"),
    (3, 0, [(0, 1)], "part A must be a sequence of integers, got 0"),
    (3, [True], [(0, 1)], "part A must hold integers, got True"),
    (3.0, [0], [(0, 1)], "vertex count must be a nonnegative integer, "
                         "got 3.0"),
])
def test_edge_polytope_takes_only_int_vertices_and_pairs(nvertices, part_a,
                                                         edges, message):
    with pytest.raises(UsageError) as info:
        edge_polytope(nvertices, part_a, edges)
    assert str(info.value) == message


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


def test_affine_lattice_coordinates_matches_oracle_after_embedding():
    """A full-dimensional set of rank r, mapped into Z^n (n > r) by the
    first r columns of a random unimodular matrix (a saturated lattice
    embedding) plus a translation, comes back as a set isomorphic to
    itself; with one direction scaled by 2 first, it does not."""
    rng = random.Random(73)
    for r in (1, 2, 3, 4):
        for _ in range(4):
            while True:
                pts = list({tuple(rng.randint(0, 2) for _ in range(r))
                            for _ in range(rng.randint(r + 1, r + 2))})
                base = pts[0]
                if rank_fractions([[x - b for x, b in zip(p, base)]
                                   for p in pts[1:]]) == r:
                    break
            n = r + rng.randint(1, 2)
            emb = random_unimodular(rng, n, 3 * n).entries
            shift = [rng.randint(-3, 3) for _ in range(n)]

            def embedded(points):
                image = PointSet.from_points(
                    [tuple(sum(emb[k][c] * p[c] for c in range(r)) + shift[k]
                           for k in range(n)) for p in points])
                return affine_lattice_coordinates(image)

            back = embedded(pts)
            assert back.dim == r
            assert lattice_isomorphic_bruteforce(pts, back.points)
            scaled = embedded([(2 * p[0],) + p[1:] for p in pts])
            assert scaled.dim == r
            assert not lattice_isomorphic_bruteforce(pts, scaled.points)


def _lattice_index(diffs):
    """Index of the lattice that r integer vectors span in its saturation:
    the gcd of their r x r minors (a saturated lattice has a basis whose
    maximal minors are coprime)."""
    r = len(diffs)
    g = 0
    for rows in combinations(range(len(diffs[0])), r):
        g = gcd(g, det_cofactor([[v[k] for v in diffs] for k in rows]))
    return g


def test_affine_lattice_coordinates_keep_every_simplex_index():
    """Each affinely independent (r+1)-subset of a rank-r set keeps its
    lattice index: |det| of its embedded simplex equals the gcd of the
    r x r minors of its differences in the ambient lattice."""
    rng = random.Random(75)
    sets = [OVERFLOW_POLYTOPE_POINTS]
    while len(sets) < 12:
        n, r = rng.randint(2, 5), rng.randint(1, 3)
        gens = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        pts = {tuple(sum(rng.randint(-2, 2) * g[k] for g in gens)
                     + rng.randint(0, 1) * k for k in range(n))
               for _ in range(r + 3)}
        sets.append(sorted(pts))
    for pts in sets:
        emb = affine_lattice_coordinates(PointSet.from_points(pts))
        diffs = [[x - b for x, b in zip(p, pts[0])] for p in pts[1:]]
        r = rank_fractions(diffs)
        assert emb.dim == r
        e = emb.points
        for sub in combinations(range(len(pts)), r + 1):
            base = pts[sub[0]]
            sub_diffs = [[x - b for x, b in zip(pts[i], base)]
                         for i in sub[1:]]
            det = det_cofactor([[e[i][k] - e[sub[0]][k] for i in sub[1:]]
                                for k in range(r)])
            if rank_fractions(sub_diffs) == r:
                assert abs(det) == _lattice_index(sub_diffs), (pts, sub)
            else:
                assert det == 0


def test_unimodular_polytope_past_64_bit_transforms():
    # the first 5-subset is a simplex of lattice index 17
    ps = PointSet.from_points(OVERFLOW_POLYTOPE_POINTS)
    emb = affine_lattice_coordinates(ps)
    verdict = is_unimodular_polytope(emb)
    assert (emb.dim, verdict.is_unimodular) == (4, False)
    assert verdict.witness[0] == (0, 1, 2, 3, 4)
    diffs = [[x - b for x, b in zip(p, ps.points[0])] for p in ps.points[1:5]]
    assert abs(verdict.witness[1]) == _lattice_index(diffs) == 17


def test_full_dimensional_sets_come_back_translated():
    """The embedding of a full-dimensional set is its differences from the
    first point, so a witness keeps the determinant of its own simplex."""
    for pts in ([(0, 0), (3, 1), (1, 2)], [(5, -1), (2, 2), (4, 7), (0, 0)],
                simplex_product(1, 2).points):
        base = pts[0]
        assert affine_lattice_coordinates(PointSet.from_points(pts)).points \
            == tuple(tuple(x - b for x, b in zip(p, base)) for p in pts)


# the widest entry that outside input may hold
WIDE = (1 << 63) - 1


def test_wide_segment_is_embedded_exactly():
    """The segment from -WIDE to WIDE: its entries pass the 64-bit input
    check and its difference 2 * WIDE does not, which only outside input
    meets. Its embedding, verdict and isomorphism test are exact."""
    seg = PointSet.from_points([(-WIDE,), (WIDE,)])
    emb = affine_lattice_coordinates(seg)
    assert emb == PointSet(1, ((0,), (2 * WIDE,)))
    verdict = is_unimodular_polytope(emb)
    assert (verdict.is_unimodular, verdict.witness) == (False,
                                                        ((0, 1), 2 * WIDE))
    with pytest.raises(PreconditionError,
                       match="^not a unimodular polytope; witness"):
        vertex_bound_check(seg)
    unit = PointSet.from_points([(0,), (1,)])
    assert not lattice_isomorphic(seg, unit)
    assert not lattice_isomorphic(unit, seg)
    assert lattice_isomorphic(seg, PointSet.from_points([(WIDE,), (-WIDE,)]))


def test_wide_collinear_set_is_embedded_exactly():
    """A rank-deficient set with the same wide differences, so the
    embedding reads its coordinates off the HNF."""
    pts = [(-WIDE, 0), (WIDE, 0), (0, 0)]
    p = PointSet.from_points(pts)
    assert affine_lattice_coordinates(p) == PointSet(
        1, ((0,), (2 * WIDE,), (WIDE,)))
    assert lattice_isomorphic(p, PointSet.from_points([(y, x) for x, y in pts]))
    assert not lattice_isomorphic(p, PointSet.from_points([(0,), (2,), (1,)]))


def test_embedding_runs_one_elimination_per_point_set(monkeypatch):
    counts = {}
    _counting(monkeypatch, linsolve, "row_hnf", counts)
    sets = [OVERFLOW_POLYTOPE_POINTS, simplex(3).points,
            [(0, 0, 1), (1, 0, 1), (0, 1, 1)], [(5, 5)],
            [u + v for u in ((0,), (1,)) for v in ((0, 1, 0), (1, 0, 0))]]
    for pts in sets:
        counts.clear()
        affine_lattice_coordinates(PointSet.from_points(pts))
        assert counts == {"row_hnf": 1}


def test_point_sets_take_only_ints():
    for bad in ([(1.5, 0), (0, True)], [(1, 0), (0, True)], [(1.0,)]):
        with pytest.raises(UsageError, match="^points must hold integers"):
            PointSet.from_points(bad)
    assert PointSet.from_points([[1, 0], (0, 1)]).points == ((1, 0), (0, 1))


def test_adjugate_is_a_multiple_of_the_fraction_inverse():
    """The frame inverse of lattice_isomorphic: (c, c * A^-1) with |c| =
    |det A|, row swaps for zero pivots included."""
    rng = random.Random(74)
    swapped = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        det = det_cofactor(a)
        if det == 0:
            continue
        swapped += a[0][0] == 0
        c, adj = polytopes._adjugate(a)
        assert abs(c) == abs(det)
        assert adj == [[c * x for x in row] for row in inverse_fractions(a)]
    assert swapped >= 20


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


def _random_image_pairs():
    """Random point sets in a small box (so frames of volume > 1 occur),
    each with a unimodular image of itself, that image with one point
    moved, or an unrelated set."""
    rng = random.Random(71)
    pairs = []

    def random_points(d, k):
        while True:
            pts = list({tuple(rng.randint(0, 3) for _ in range(d))
                        for _ in range(k)})
            if len(pts) == k and _affine_rank(pts) == d:
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
        if _affine_rank(image) == d:
            pairs.append((pts, image))
    return pairs


def test_lattice_isomorphic_matches_oracle_on_random_images():
    verdicts = []
    for pts, image in _random_image_pairs():
        q = PointSet.from_points(image)
        expected = lattice_isomorphic_bruteforce(pts, image)
        assert lattice_isomorphic(PointSet.from_points(pts), q) == expected, \
            (pts, image)
        verdicts.append(expected)
    assert any(verdicts) and not all(verdicts)


def test_lattice_isomorphic_is_exact_on_big_coordinates():
    """The random pairs moved far out: each set under its own unimodular
    map with 40-bit entries and a shift near 2**61, so frame determinants
    and products pass 64 bits. The verdicts agree with the oracle."""
    rng = random.Random(73)
    verdicts = set()
    for pts, image in _random_image_pairs()[::2]:
        p_points, q_points = far_image(rng, pts), far_image(rng, image)
        expected = lattice_isomorphic_bruteforce(p_points, q_points)
        assert lattice_isomorphic(PointSet.from_points(p_points),
                                  PointSet.from_points(q_points)) == expected, \
            (p_points, q_points)
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_lattice_isomorphic_matches_oracle_with_shuffled_points(monkeypatch):
    """The frame of P and the order of its frame points follow the stored
    point order, and the verdict must not."""
    rng = random.Random(72)
    pairs = [(p.points, q.points)
             for d in (3, 4) for p, q in _classification_pairs(monkeypatch, d)
             if len(p) <= 7]
    verdicts = set()
    for p_points, q_points in pairs + _random_image_pairs():
        p_points, q_points = list(p_points), list(q_points)
        rng.shuffle(p_points)
        rng.shuffle(q_points)
        expected = lattice_isomorphic_bruteforce(p_points, q_points)
        assert lattice_isomorphic(PointSet.from_points(p_points),
                                  PointSet.from_points(q_points)) == expected, \
            (p_points, q_points)
        verdicts.add(expected)
    assert verdicts == {True, False}


def _counting(monkeypatch, module, name, counts):
    real = getattr(module, name)

    def counted(*args):
        counts[name] = counts.get(name, 0) + 1
        return real(*args)

    monkeypatch.setattr(module, name, counted)


def test_classify_d4_examines_313_cube_orbits(monkeypatch):
    sizes = {}
    real = kernels.canonical_masks

    def recording(*args):
        masks = real(*args)
        for mask in masks:
            size = bin(mask).count("1")
            sizes[size] = sizes.get(size, 0) + 1
        return masks

    monkeypatch.setattr(kernels, "canonical_masks", recording)
    assert classify_unimodular(4).subsets_examined == 313
    assert sizes == {5: 27, 6: 50, 7: 56, 8: 74, 9: 56, 10: 50}


def test_classify_keeps_nothing_across_calls(monkeypatch):
    # a CLI process classifies once, so no call may lean on an earlier one
    for _ in range(2):
        counts = {}
        _counting(monkeypatch, kernels, "canonical_masks", counts)
        _counting(monkeypatch, polytopes, "lattice_isomorphic", counts)
        assert classify_unimodular(4).count == 13
        assert counts == {"canonical_masks": 1, "lattice_isomorphic": 84}
        monkeypatch.undo()


def test_classify_isomorphism_work_is_pinned(monkeypatch):
    """Each of the 84 isomorphism tests of classify_unimodular(4) embeds
    its two full-dimensional sets with one elimination each. The 16
    non-isomorphic pairs differ in their pair-sum profiles and stop
    there; the 68 isomorphic ones build one frame inverse and accept the
    first full frame they try."""
    counts = {}
    _counting(monkeypatch, linsolve, "row_hnf", counts)
    _counting(monkeypatch, kernels, "det_entries", counts)
    _counting(monkeypatch, polytopes, "_adjugate", counts)
    real = polytopes.lattice_isomorphic
    work = []

    def recording(p, q):
        before = dict(counts)
        verdict = real(p, q)
        work.append((verdict, tuple(counts.get(k, 0) - before.get(k, 0)
                                    for k in ("row_hnf", "_adjugate",
                                              "det_entries"))))
        return verdict

    monkeypatch.setattr(polytopes, "lattice_isomorphic", recording)
    classify_unimodular(4)
    assert sorted(set(work)) == [(False, (2, 0, 0)), (True, (2, 1, 1))]
    assert [verdict for verdict, _ in work].count(False) == 16
    assert len(work) == 84


def test_classify_computes_each_cube_simplex_once(monkeypatch):
    """classify_unimodular for d = 1..4 takes one determinant per distinct
    cube simplex it reaches, 1 130 in all (10 440 when the rank, the
    unimodularity scan and the fingerprint each took their own), and no
    rank or unimodularity scan. The memo dies with the call, so a second
    round does the same work."""
    real = _pykernels.det_entries
    rounds = []
    for _ in range(2):
        counts = {}

        def counted(rows):
            counts["det_entries"] = counts.get("det_entries", 0) + 1
            return real(rows)

        # unimodular_violation looks det_entries up in _pykernels, and
        # polytopes through kernels: count both
        monkeypatch.setattr(_pykernels, "det_entries", counted)
        monkeypatch.setattr(kernels, "det_entries", counted)
        _counting(monkeypatch, kernels, "rank_entries", counts)
        _counting(monkeypatch, kernels, "unimodular_violation", counts)
        for d in (1, 2, 3, 4):
            classify_unimodular(d)
        monkeypatch.undo()
        rounds.append(counts)
    assert rounds[0] == rounds[1]
    # the 68 isomorphic pairs of d = 4 take one frame determinant each
    assert rounds[0] == {"det_entries": 1130}


def test_classify_fingerprints_match_fingerprint():
    # classify reads each fingerprint off its own determinants; it must be
    # the one that fingerprint computes from scratch
    for d in (1, 2, 3, 4):
        for cls in classify_unimodular(d).classes:
            assert cls.fingerprint == fingerprint(cls.vertices)


def test_classify_memory_stays_small():
    # the memo holds about 1 100 determinants, the orbit tables of the 383
    # cube symmetries about 0.4 MB; the peak was 620 KB before the memo
    tracemalloc.start()
    try:
        classify_unimodular(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _scrambled(rng, rows):
    """Row permutation, row signs, one elementary row operation and a
    column shuffle, as the round trips of criterion 7 apply them."""
    data = [list(r) for r in rows]
    rng.shuffle(data)
    data = [[-x for x in r] if rng.random() < 0.4 else r for r in data]
    i, j = rng.sample(range(len(data)), 2)
    c = rng.choice((-1, 1))
    data[i] = [x + c * y for x, y in zip(data[i], data[j])]
    cols = list(zip(*data))
    rng.shuffle(cols)
    return IntMatrix.from_columns(cols)


def test_round_trip_isomorphism_work_is_pinned(monkeypatch):
    """Determinants and HNFs that one round trip's lattice-isomorphism test
    computes: the determinant of the one full frame tried, and the one
    elimination each that re-coordinatizes P and Q (P's frame is read off
    P's; its adjugate takes no determinant)."""
    prism = [u + v for u in ((0,), (1,)) for v in ((0, 0), (1, 0), (0, 1))]
    member_4x6 = [list(r) for r in zip(*[p + (1,) for p in prism])]
    edges = [(0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 6), (0, 6), (1, 4),
             (2, 5)]
    member_6x9 = [[int(v in e) for e in edges] for v in range(6)]
    rng = random.Random(5)
    for rows in (member_4x6, member_6x9):
        for _ in range(6):
            m = _scrambled(rng, rows)
            q = PointSet.from_matrix_columns(normalize_standard_form(m).matrix)
            counts = {}
            _counting(monkeypatch, kernels, "det_entries", counts)
            _counting(monkeypatch, linsolve, "row_hnf", counts)
            assert lattice_isomorphic(PointSet.from_matrix_columns(m), q)
            monkeypatch.undo()
            assert counts == {"det_entries": 1, "row_hnf": 2}


def _extend_calls(p, q):
    """lattice_isomorphic(p, q) and the number of calls to its inner
    ``extend``, one per partial frame map tried, counted by a profiler."""
    extend = next(c for c in polytopes.lattice_isomorphic.__code__.co_consts
                  if getattr(c, "co_name", None) == "extend")
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is extend:
            calls.append(1)

    sys.setprofile(profile)
    try:
        verdict = lattice_isomorphic(p, q)
    finally:
        sys.setprofile(None)
    return verdict, len(calls)


def test_greedy_frame_order_keeps_product_isomorphisms_cheap():
    """Partial frame maps that lattice_isomorphic tries between a simplex
    product in stored order and seeded unimodular images of it, in its
    own dimension and lifted one dimension up. In the plain frame order
    1, 2, ..., d the same tests try 351-6 627 maps (Δ2×Δ4) and 118-681
    (Δ3×Δ3), and the Δ2×Δ4 ones take seconds."""
    work = {}
    for a, b in ((2, 4), (3, 3)):
        base = simplex_product(a, b)
        n = a + b
        rng = random.Random(17)
        for lift in (0, 1):
            for _ in range(3):
                u = random_unimodular(rng, n + lift, 3 * n).entries
                shift = [rng.randint(-3, 3) for _ in range(n + lift)]
                pts = [tuple(sum(u[k][c] * x for c, x in enumerate(p))
                             + shift[k] for k in range(n + lift))
                       for p in base.points]
                rng.shuffle(pts)
                verdict, calls = _extend_calls(base, PointSet.from_points(pts))
                assert verdict
                work.setdefault((a, b), []).append(calls)
    assert work == {(2, 4): [9, 30, 9, 8, 29, 11],
                    (3, 3): [9, 9, 9, 8, 11, 10]}


def test_normalize_runs_one_row_hnf_of_m(monkeypatch):
    """Rank, polytopality, unimodularity and (I | B) all come from one
    elimination of M; the TU re-certification of (I | B) takes none."""
    seen = []
    real = linsolve.row_hnf

    def recording(a):
        seen.append(a)
        return real(a)

    monkeypatch.setattr(linsolve, "row_hnf", recording)
    rng = random.Random(6)
    lifted_ex4 = ex4_matrix().entries + ((1,) * 10,)
    for rows in (lifted_ex4, sporadic_5x10().entries, ((1, 0), (0, 1))):
        m = _scrambled(rng, rows)
        seen.clear()
        normalize_standard_form(m)
        assert len(seen) == 1 and seen[0] is m


def test_normalize_raises_the_first_failing_precondition():
    # rank 1 of 2, not polytopal, not unimodular
    with pytest.raises(PreconditionError,
                       match="^normalization requires full row rank$"):
        normalize_standard_form(IntMatrix.from_rows([[1, 2], [2, 4]]))
    # full row rank, not polytopal, a 1 x 1 minor 2
    with pytest.raises(PreconditionError, match="^matrix is not polytopal$"):
        normalize_standard_form(IntMatrix.from_rows([[1, 2]]))
    # full row rank and polytopal (f = (1, 0)), determinant 2
    with pytest.raises(PreconditionError, match="^matrix is not unimodular$"):
        normalize_standard_form(IntMatrix.from_rows([[1, 1], [0, 2]]))


def test_normalize_recertification_exceeds_the_tu_budgets():
    """(I | e_1) with 21 rows is polytopal and unimodular, and N = e_1 is
    decided at once; only the TU re-certification of the output, past
    both the minor and the Ghouila-Houri budget, raises."""
    m = IntMatrix.from_rows([[int(i == j) for j in range(21)] + [int(i == 0)]
                             for i in range(21)])
    with pytest.raises(BudgetExceeded, match="21x22"):
        normalize_standard_form(m)


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
    rebuilt = list(zip(*matmul(res.transform.entries, res.matrix.entries)))
    for k, j in enumerate(res.permutation):
        assert rebuilt[k] == m.col(j)


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


def _tu_sets_beside_identity(n):
    """Every TU (I_n | S) whose columns sum to 1 and are distinct, one per
    orbit of the n! row permutations, as the list of its columns.

    A DFS over the sorted index sets S of the candidate columns (entries
    in {-1, 0, 1}, sum 1, not a unit vector) keeps a set only when no
    row permutation maps it to a lex-smaller sorted set, and only when
    the minor table shows (I_n | S) TU. Both properties hold for every
    prefix of a set that has them, so a rejected set has no descendant
    to keep: a sorted set keeps its prefix P as its smallest elements,
    and an image of P that is lex-smaller makes the image of the whole
    set lex-smaller."""
    identity = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    cands = [c for c in product((-1, 0, 1), repeat=n)
             if sum(c) == 1 and c not in identity]
    index = {c: i for i, c in enumerate(cands)}
    perms = [[index[tuple(c[s] for s in sigma)] for c in cands]
             for sigma in permutations(range(n))]
    found = []
    stack = [[]]
    while stack:
        chosen = stack.pop()
        if any(sorted(map(p.__getitem__, chosen)) < chosen for p in perms):
            continue
        cols = identity + [cands[i] for i in chosen]
        if not is_tu_by_minor_table([list(r) for r in zip(*cols)]):
            continue
        found.append(cols)
        start = chosen[-1] + 1 if chosen else 0
        stack.extend(chosen + [j] for j in range(start, len(cands)))
    return found


def test_classification_reproduced_from_tu_matrices():
    """The classes of ``classify_unimodular`` come back from the matrix
    side, with no cube, no orbit walk and no vertex bound: the columns
    of a TU (I_{d+1} | S) with column sums 1 span a unimodular d-polytope
    in {x : sum x = 1}, and every unimodular d-polytope arises so. Row
    permutations are lattice isomorphisms, and so is dropping the last
    coordinate, which maps that hyperplane onto Z^d. The sets merged by
    ``lattice_isomorphic`` must match classify's classes one to one, and
    the oracle confirms each matched pair."""
    for d, nsets, nclasses in ((1, 1, 1), (2, 2, 2), (3, 5, 4), (4, 44, 13)):
        sets = _tu_sets_beside_identity(d + 1)
        assert len(sets) == nsets
        classes = []
        for cols in sets:
            ps = PointSet.from_points([c[:-1] for c in cols])
            if not any(lattice_isomorphic(q, ps) for q in classes):
                classes.append(ps)
        assert len(classes) == nclasses
        expected = classify_unimodular(d).classes
        matched = []
        for ps in classes:
            match = [c for c in expected
                     if lattice_isomorphic(c.vertices, ps)]
            assert len(match) == 1, (d, ps.points)
            assert lattice_isomorphic_bruteforce(ps.points,
                                                 match[0].vertices.points)
            matched.append(match[0])
        assert len(set(matched)) == len(expected) == nclasses


def test_classification_gating():
    with pytest.raises(BudgetExceeded):
        classify_unimodular(5)


def test_classification_classes_certify_and_meet_bound():
    res = classify_unimodular(3)
    for cls in res.classes:
        assert is_unimodular_polytope(cls.vertices).is_unimodular
        rep = vertex_bound_check(cls.vertices)
        assert rep.ok
        assert (_oracle_cube_points_in_hull(cls.vertices.points)
                == list(cls.vertices.points))


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
        assert rank_fractions(m.to_lists()) == m.rows
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
