"""Unimodular-polytope certification, the matrix/polytope translation,
lattice isomorphism, edge polytopes, simplex products, and the exhaustive
low-dimensional classification over the 0/1 cube.
"""

from collections import Counter
from itertools import combinations, permutations, product
from math import gcd
from typing import Optional

from . import kernels, linsolve
from ._record import Record, set_field
from .certify import _hnf_is_unimodular, is_totally_unimodular
from .errors import BudgetExceeded, PreconditionError, UsageError
from .families import h
from .lp import in_convex_hull
from .matrix import (IntMatrix, int_arg, int_pair, int_vector, matrix_arg,
                     pair_list)


class PointSet(Record):
    """Ambient dimension plus a tuple of pairwise distinct lattice points."""

    dim: int
    points: tuple

    def __init__(self, dim, points):
        # about 1 300 point sets per polytopes pass: no generic argument
        # handling
        set_field(self, "dim", dim)
        set_field(self, "points", points)

    @staticmethod
    def from_points(points):
        pts = tuple(int_vector(p, "points") for p in points)
        if pts:
            d = len(pts[0])
            if any(len(p) != d for p in pts):
                raise UsageError("points have inconsistent dimensions")
        else:
            raise UsageError("a point set needs at least one point")
        if len(set(pts)) != len(pts):
            raise UsageError("points must be pairwise distinct")
        return PointSet(d, pts)

    @staticmethod
    def from_matrix_columns(m):
        return PointSet.from_points(matrix_arg(m).columns())

    def to_matrix(self):
        return IntMatrix.from_columns(list(self.points))

    def __len__(self):
        return len(self.points)


class HullResult(Record):
    vertices: PointSet
    nonvertices: tuple
    cube_points_in_hull: Optional[tuple]


# vertex_hull lists the cube points in the hull of 0/1 input up to this
# dimension; past it there are too many to test one LP each
CUBE_DIM_LIMIT = 12


def _nonvertices(points):
    """The points inside the convex hull of the others, in point order
    (one exact integer LP per point)."""
    for i, p in enumerate(points):
        others = points[:i] + points[i + 1:]
        if others and in_convex_hull(p, others):
            yield p


def vertex_hull(ps):
    """Split a point set into hull vertices and interior/boundary points.

    A point is a vertex exactly when it is outside the convex hull of the
    other points (exact integer LP). For 0/1 input of dimension at most
    ``CUBE_DIM_LIMIT`` the full list of cube points inside the hull is
    returned as well.
    """
    nonverts = tuple(_nonvertices(ps.points))
    verts = tuple(p for p in ps.points if p not in nonverts)
    cube = None
    if (all(x in (0, 1) for p in ps.points for x in p)
            and ps.dim <= CUBE_DIM_LIMIT):
        chosen = set(ps.points)
        cube = tuple(q for q in product((0, 1), repeat=ps.dim)
                     if q in chosen or in_convex_hull(q, ps.points))
    return HullResult(PointSet(ps.dim, verts), nonverts, cube)


class UnimodularityVerdict(Record):
    is_unimodular: bool
    witness: Optional[tuple]  # ((d+1) point indices, determinant)


def is_unimodular_polytope(ps):
    """Does every full-dimensional vertex simplex span a lattice basis?

    Requires a full-dimensional input in convex position (each point a
    vertex). The determinant of a (d+1)-subset's simplex is, up to sign,
    a maximal minor of the homogenized matrix (1 ... 1 ; p_1 ... p_n), so
    P is unimodular exactly when that matrix is. One row HNF of it gives
    the affine rank (its pivot count minus 1) and the verdict
    (``certify._hnf_is_unimodular``: every pivot 1 and the non-pivot
    block N TU by ``certify.ghouila_houri_check``, which runs on the side
    of N with fewer rows). An entry of N outside {-1,0,1} decides at
    once; otherwise, past 20 rows on that side, it raises
    ``BudgetExceeded``, naming the number of points and the dimension.
    A positive needs nothing more: convex position follows from it. On
    a negative, the ordered scan of the (d+1)-subsets names the first
    violating one as the witness, once an exact LP per point has found
    no point inside the hull of the others.
    """
    n = len(ps.points)
    hnf, _, pivots = linsolve.row_hnf(
        IntMatrix(ps.dim + 1, n, ((1,) * n,) + tuple(zip(*ps.points))))
    rank = len(pivots) - 1
    if rank != ps.dim:
        raise PreconditionError(f"point set is not full-dimensional "
                                f"(affine rank {rank} < {ps.dim})")
    if _hnf_is_unimodular(hnf, pivots, f"{n} points in dimension {ps.dim}"):
        # a point in the hull of the others lies in a full-dimensional
        # simplex of them (Caratheodory); a unimodular simplex holds no
        # lattice point but its vertices, so the set is in convex position
        return UnimodularityVerdict(True, None)
    hit = kernels.unimodular_violation(ps.points)
    nonvertex = next(_nonvertices(ps.points), None)
    if nonvertex is not None:
        raise PreconditionError(
            f"point set is not in convex position: {nonvertex} "
            f"is not a vertex")
    return UnimodularityVerdict(False, (tuple(hit[0]), hit[1]))


def edge_polytope(nvertices, part_a, edges):
    """Points e_i + e_j for the edges of a bipartite graph with given parts;
    a vertex count, part A or edge list not made of ints raises UsageError."""
    int_arg(nvertices, 0, f"vertex count must be a nonnegative integer, "
            f"got {nvertices!r}")
    part_a = frozenset(int_vector(part_a, "part A"))
    if not part_a <= set(range(nvertices)):
        raise UsageError("part A references unknown vertices")
    pts = []
    for edge in pair_list(edges, "edges"):
        u, v = int_pair(edge, "edge")
        if not (0 <= u < nvertices and 0 <= v < nvertices):
            raise UsageError(f"edge ({u},{v}) references unknown vertex")
        if (u in part_a) == (v in part_a):
            raise PreconditionError(
                f"edge ({u},{v}) stays inside one part; graph is not "
                f"bipartite with the declared parts")
        p = [0] * nvertices
        p[u] += 1
        p[v] += 1
        pts.append(tuple(p))
    return PointSet.from_points(dict.fromkeys(pts))


def complete_bipartite_edges(na, nb):
    """Edge list of K_{na,nb} with part A = {0..na-1}."""
    for k in (na, nb):
        int_arg(k, 0, f"part sizes must be nonnegative integers, got {k!r}")
    return [(i, na + j) for i in range(na) for j in range(nb)]


def simplex_product(a, b):
    """Vertex set of the product of two standard simplices, in dimension a+b."""
    for k in (a, b):
        int_arg(k, 0, "simplex dimensions must be nonnegative")

    def verts(k):
        out = [tuple([0] * k)]
        for i in range(k):
            e = [0] * k
            e[i] = 1
            out.append(tuple(e))
        return out

    pts = [u + v for u in verts(a) for v in verts(b)]
    return PointSet.from_points(pts)


def affine_lattice_coordinates(ps):
    """Re-coordinatize onto the saturated affine lattice of the hull.

    The first point maps to the origin and the difference lattice
    Z^dim ∩ aff(ps) maps onto Z^r, r = affine rank; unimodularity and
    lattice isomorphism are preserved. Already full-dimensional sets come
    back unchanged up to translation.
    """
    return _embed(ps)[0]


def _embed(ps):
    """``affine_lattice_coordinates(ps)`` and the HNF pivots j of the
    differences; the points j + 1 and 0 are the leftmost affine frame."""
    base = ps.points[0]
    diffs = [tuple(p[i] - base[i] for i in range(ps.dim)) for p in ps.points[1:]]
    hnf, _, pivots = linsolve.row_hnf(
        IntMatrix(ps.dim, len(diffs), tuple(zip(*diffs)) or ((),) * ps.dim))
    r = len(pivots)
    if r == ps.dim:
        # full rank: the coordinates are the differences themselves, so a
        # full-dimensional witness keeps its own determinant
        return PointSet(ps.dim, ((0,) * ps.dim,) + tuple(diffs)), pivots
    # U * D = H with U unimodular sends the span of the differences onto
    # the first r coordinates, so it sends Z^dim ∩ span onto Z^r: the
    # coordinates of difference j are column j of H's nonzero rows
    return PointSet(r, ((0,) * r,) + tuple(zip(*hnf.entries[:r]))), pivots


def _pair_sum_profiles(pts):
    """For each point p, the sorted multiplicities, over the other points
    q, of p + q as a sum of two distinct points. An affine bijection
    between two sets keeps the profile of each point."""
    # each point as one integer, linear in the coordinates and with digits
    # wide enough that distinct sums of two points get distinct codes
    width = 4 * max(abs(x) for p in pts for x in p) + 1
    codes = [sum(x * width ** k for k, x in enumerate(p)) for p in pts]
    pairs = Counter(a + b for a, b in combinations(codes, 2))
    return [tuple(sorted([pairs[a + b] for b in codes if b != a]))
            for a in codes]


def _adjugate(a):
    """(c, c * A^-1), c = +-det A, by fraction-free Gauss-Jordan on (A | I):
    each entry stays a minor, so each division is exact."""
    n = len(a)
    rows = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(a)]
    prev = 1
    for k in range(n):
        piv = next(i for i in range(k, n) if rows[i][k])
        rows[k], rows[piv] = rows[piv], rows[k]
        pk = rows[k]
        rows = [r if r is pk else [(pk[k] * x - r[k] * y) // prev
                                   for x, y in zip(r, pk)] for r in rows]
        prev = pk[k]
    return prev, [r[n:] for r in rows]


def lattice_isomorphic(p, q):
    """Exhaustive affine lattice-isomorphism test of two point sets.

    Both sets are first re-coordinatized to full dimension; sets whose
    pair-sum profiles (``_pair_sum_profiles``) differ as multisets are not
    isomorphic. One affinely independent frame of P is fixed (the
    leftmost in stored order, read off the elimination that embedded P),
    and each point of P gets its coordinates in that frame, scaled by the
    frame's determinant so that they are integral. Frame point 0 comes
    first; frame points 1..d follow in greedy order, each next one the
    one that, with those before it, fixes the images of the most P
    points (the leftmost on a tie). Images in Q are then chosen for the
    frame points in that order, one at a time, among the Q points with
    the frame point's profile, each Q point used at most once. Once frame
    points 0..j have images, the image of every P point whose
    coordinates use only those frame points is fixed, and the branch is
    dropped when such an image is not integral or not in Q. A full frame
    is accepted when its simplex volume is P's and the affine map it
    defines is integral.
    """
    pe, p_pivots = _embed(p)
    qe = affine_lattice_coordinates(q)
    if pe.dim != qe.dim or len(pe.points) != len(qe.points):
        return False
    d = pe.dim
    if d == 0:
        return True
    p_profiles = _pair_sum_profiles(pe.points)
    q_profiles = _pair_sum_profiles(qe.points)
    if sorted(p_profiles) != sorted(q_profiles):
        return False
    p_frame = (0,) + tuple(j + 1 for j in p_pivots)
    p0 = pe.points[0]
    # p_adj = p_det * P_frame^-1, P_frame the columns p_{t+1} - p0
    p_det, p_adj = _adjugate([[pe.points[i][k] - p0[k] for i in p_frame[1:]]
                              for k in range(d)])
    # the frame coordinates (times p_det) of the points off the frame, and
    # the frame points each one uses, as a bitmask
    lams = [[sum(a * (x - x0) for a, x, x0 in zip(p_adj[t], pt, p0))
             for t in range(d)]
            for i, pt in enumerate(pe.points) if i not in p_frame]
    uses = [sum(1 << t for t in range(d) if lam[t]) for lam in lams]
    # frame points 1..d in greedy order: each next one fixes the images of
    # the most points together with those before it (the first on a tie)
    order = []
    chosen = 0
    for _ in range(d):
        best = max((t for t in range(d) if not chosen >> t & 1),
                   key=lambda t: sum(not u & ~(chosen | 1 << t) for u in uses))
        order.append(best)
        chosen |= 1 << best
    p_adj = [p_adj[t] for t in order]
    # by_level[j]: the reordered coordinates of the points whose last
    # nonzero coordinate is that of frame point j; their images are fixed
    # once frame points 0..j have images
    by_level = [[] for _ in range(d + 1)]
    for lam in lams:
        lam = [lam[t] for t in order]
        level = max(t + 1 for t in range(d) if lam[t])
        by_level[level].append(lam[:level])
    q_pts = qe.points
    q_set = set(q_pts)
    # the Q points that may be the image of frame point j
    cands = [[i for i, c in enumerate(q_profiles) if c == p_profiles[f]]
             for f in (0,) + tuple(p_frame[t + 1] for t in order)]
    images = []
    used = set()

    def image_in_q(lam):
        # p_det * image = p_det * q0 + sum_t lam[t] * (q_{t+1} - q0)
        q0 = images[0]
        out = []
        for k in range(d):
            s = p_det * q0[k] + sum(lam[t] * (images[t + 1][k] - q0[k])
                                    for t in range(len(lam)))
            if s % p_det:
                return False
            out.append(s // p_det)
        return tuple(out) in q_set

    def unimodular_map():
        # L = Q_frame * P_frame^{-1} must be integral; its determinant is
        # +-1 since the frames have equal |det|
        q0 = images[0]
        q_cols = [[qt[k] - q0[k] for k in range(d)] for qt in images[1:]]
        q_det = kernels.det_entries(q_cols)
        if abs(q_det) != abs(p_det):
            return False
        return all(sum(q_cols[t][r] * p_adj[t][c] for t in range(d))
                   % p_det == 0 for r in range(d) for c in range(d))

    def extend(j):
        if j > d:
            return unimodular_map()
        for i in cands[j]:
            if i in used:
                continue
            images.append(q_pts[i])
            used.add(i)
            if (all(image_in_q(lam) for lam in by_level[j])
                    and extend(j + 1)):
                return True
            used.discard(i)
            images.pop()
        return False

    return extend(0)


def _simplex_det(pts, sub):
    """Determinant of the difference vectors from pts[sub[0]] to the
    other points of ``sub``; +-(d! times the simplex volume)."""
    base = pts[sub[0]]
    return kernels.det_entries([[x - y for x, y in zip(pts[i], base)]
                                for i in sub[1:]])


def fingerprint(ps):
    """Affine-unimodular invariants used to pre-sort isomorphism classes.

    Components: intrinsic dimension, vertex count, sorted multiset of
    pairwise lattice distances (gcd of coordinate differences), the
    number of affinely independent (d+1)-subsets, and its sorted
    per-vertex distribution. Equal fingerprints do not imply isomorphism;
    distinct fingerprints prove non-isomorphism.
    """
    pe = affine_lattice_coordinates(ps)
    d, pts = pe.dim, pe.points
    subs = combinations(range(len(pts)), d + 1) if d else ()
    return _fingerprint(d, pts, [_simplex_det(pts, sub) for sub in subs])


def _fingerprint(d, pts, dets):
    """``fingerprint`` of the points ``pts`` of affine rank d, given the
    determinants ``dets`` of their (d+1)-subsets in ``combinations``
    order. Both invariants are translation-invariant, so ``pts`` need not
    be re-coordinatized when d is their ambient dimension."""
    dists = []
    for a, b in combinations(pts, 2):
        g = 0
        for x, y in zip(a, b):
            g = gcd(g, x - y)
        dists.append(g)
    indep_total = 0
    per_vertex = [0] * len(pts)
    for sub, det in zip(combinations(range(len(pts)), d + 1), dets):
        if det:
            indep_total += 1
            for i in sub:
                per_vertex[i] += 1
    return (d, len(pts), tuple(sorted(dists)), indep_total,
            tuple(sorted(per_vertex)))


def fingerprint_string(fp):
    d, n, dists, indep, per_vertex = fp
    return f"d{d}An{n}:g{','.join(map(str, dists))}:s{indep}:v{','.join(map(str, per_vertex))}"


class PolytopeClass(Record):
    """Isomorphism class of a unimodular polytope with a 0/1 representative."""

    dimension: int
    vertex_count: int
    vertices: PointSet
    fingerprint: tuple

    # a class is one object of the classification: equal fields do not
    # make two classes the same one
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def to_json_dict(self):
        return {
            "dimension": self.dimension,
            "vertex_count": self.vertex_count,
            "vertices": [list(p) for p in self.vertices.points],
            "fingerprint": fingerprint_string(self.fingerprint),
        }


def _cube_symmetry_index_perms(d):
    """The hyperoctahedral group without its identity, as permutations of
    the indices of the cube points in ``product((0, 1), repeat=d)`` order
    (the group that ``kernels.canonical_masks`` takes). Coordinate k of a
    point is bit d - 1 - k of its index, so a coordinate permutation
    moves bits and a reflection is an xor with the flipped coordinates."""
    n = 1 << d
    perms = []
    for sigma in permutations(range(d)):
        moved = [sum((i >> (d - 1 - s) & 1) << (d - 1 - k)
                     for k, s in enumerate(sigma)) for i in range(n)]
        perms.extend([j ^ flips for j in moved] for flips in range(n))
    identity = list(range(n))
    return [p for p in perms if p != identity]


def _candidate_subsets(d):
    """The cube subsets that classification examines, one per orbit of
    the cube group and at most h(d+1) points each, as increasing tuples
    of cube point indices."""
    perms = _cube_symmetry_index_perms(d)
    for mask in kernels.canonical_masks(1 << d, perms, d + 1, h(d + 1)):
        yield tuple(i for i in range(1 << d) if mask >> i & 1)


def _unimodular_dets(pts, idx, memo):
    """The determinants of the (d+1)-subsets of the points ``pts[i]``, i in
    ``idx``, in ``combinations`` order, or None at the first one outside
    {-1, 0, 1}. ``memo`` maps a subset of indices to its determinant."""
    d = len(pts[0])
    dets = []
    for sub in combinations(idx, d + 1):
        det = memo.get(sub)
        if det is None:
            det = memo[sub] = _simplex_det(pts, sub)
        if det > 1 or det < -1:
            return None
        dets.append(det)
    return dets


class ClassificationResult(Record):
    dimension: int
    classes: tuple
    count: int
    subsets_examined: int

    def to_json_list(self):
        return [c.to_json_dict() for c in self.classes]


def classify_unimodular(d):
    """All isomorphism classes of unimodular polytopes of dimension d.

    Enumerates vertex subsets of the 0/1 cube (every unimodular polytope
    is isomorphic to one spanned by cube points) up to cube symmetry,
    keeps the full-dimensional ones whose (d+1)-subset determinants are
    all in {-1, 0, 1}, and merges the survivors under lattice isomorphism.

    One pass over a subset's (d+1)-subsets decides it: it stops at the
    first determinant outside {-1, 0, 1}, and the subset is
    full-dimensional exactly when some determinant is nonzero. A
    survivor's fingerprint is read off the same determinants. Each cube
    simplex's determinant is computed at most once per call, in a memo
    keyed by its cube point indices that the call drops when it returns.

    No hull test is needed: a point in the hull of the others, or a cube
    point in the hull of the subset, lies in a full-dimensional simplex
    of the subset (Caratheodory), and a unimodular simplex holds no
    lattice point but its vertices. So every survivor is in convex
    position and its hull meets the cube exactly in the chosen points.

    Subset sizes are capped at the proven vertex bound h(d+1). d = 5
    exceeds desk scale; d >= 6 is out of scope.
    """
    if int_arg(d, 1, "classification needs d >= 1") == 5:
        raise BudgetExceeded("d = 5 classification exceeds desk scale")
    if d > 5:
        raise UsageError("classification beyond d = 5 is not supported")

    cube = list(product((0, 1), repeat=d))
    memo = {}
    classes = []
    examined = 0
    for idx in _candidate_subsets(d):
        examined += 1
        dets = _unimodular_dets(cube, idx, memo)
        if dets is None or not any(dets):
            continue
        ps = PointSet(d, tuple(cube[i] for i in idx))
        fp = _fingerprint(d, ps.points, dets)
        if not any(cls.fingerprint == fp
                   and lattice_isomorphic(cls.vertices, ps) for cls in classes):
            classes.append(PolytopeClass(d, len(idx), ps, fp))
    ordered = tuple(sorted(classes,
                           key=lambda c: (c.fingerprint, c.vertices.points)))
    return ClassificationResult(d, ordered, len(ordered), examined)


class VertexBoundReport(Record):
    dimension: int
    vertex_count: int
    bound: int
    ok: bool
    tight: bool


def vertex_bound_check(ps):
    """Vertex count of a certified unimodular polytope against its bound."""
    pe = affine_lattice_coordinates(ps)
    verdict = is_unimodular_polytope(pe)
    if not verdict.is_unimodular:
        raise PreconditionError(
            f"not a unimodular polytope; witness {verdict.witness}")
    d = pe.dim
    bound = h(d + 1)
    n = len(pe.points)
    return VertexBoundReport(d, n, bound, n <= bound, n == bound)


class NormalizeResult(Record):
    matrix: IntMatrix       # (I | B) after the change of basis
    transform: IntMatrix    # the basis columns R, with M = R (I|B) P^T
    permutation: tuple      # output column k came from input column perm[k]


def normalize_standard_form(m):
    """Left-multiply by the inverse of the leftmost basis columns.

    Requires a polytopal unimodular matrix of full row rank. One row HNF
    U * M = H decides all three: the rank is the pivot count, M is
    polytopal when the all-ones row lies in the row lattice of H (which is
    M's), and unimodular when every pivot is 1 and the non-pivot columns
    N are TU (``certify.is_unimodular``). The pivot columns then form a
    lattice basis, H is the identity on them and U is their inverse. They
    are permuted to the front, so the output has the shape (I | B) with
    B = N and all column sums 1; (I|B) is re-certified TU before
    returning.
    """
    hnf, u, frame = linsolve.row_hnf(m)
    if len(frame) != m.rows:
        raise PreconditionError("normalization requires full row rank")
    if not m.rows or linsolve.hnf_solver(hnf, u, frame)((1,) * m.cols) is None:
        raise PreconditionError("matrix is not polytopal")
    if not _hnf_is_unimodular(hnf, frame, f"matrix size {m.rows}x{m.cols}"):
        raise PreconditionError("matrix is not unimodular")
    transform = m.submatrix(range(m.rows), frame)
    perm = frame + tuple(j for j in range(m.cols) if j not in frame)
    out = IntMatrix.from_columns([hnf.col(j) for j in perm], rows=m.rows)
    if out.submatrix(range(m.rows), range(m.rows)) != IntMatrix.identity(m.rows):
        raise AssertionError("basis columns did not normalize to the identity")
    if any(sum(out.col(j)) != 1 for j in range(out.cols)):
        raise AssertionError("normalized columns do not sum to 1")
    if not is_totally_unimodular(out).is_tu:
        raise AssertionError("normalized matrix failed TU re-certification")
    return NormalizeResult(out, transform, perm)
