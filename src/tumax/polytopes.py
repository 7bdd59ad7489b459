"""Unimodular-polytope certification, the matrix/polytope translation,
lattice isomorphism, edge polytopes, simplex products, and the exhaustive
low-dimensional classification over the 0/1 cube.
"""

from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Optional

from . import kernels, linsolve
from .certify import is_totally_unimodular, is_unimodular, polytopal_certificate
from .errors import BudgetExceeded, PreconditionError, StructureError, UsageError
from .families import h
from .lp import in_convex_hull
from .matrix import IntMatrix


@dataclass(frozen=True)
class PointSet:
    """Ambient dimension plus a tuple of pairwise distinct lattice points."""

    dim: int
    points: tuple

    @staticmethod
    def from_points(points):
        pts = tuple(tuple(int(x) for x in p) for p in points)
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
        return PointSet.from_points(m.columns())

    def to_matrix(self):
        return IntMatrix.from_columns(list(self.points))

    def __len__(self):
        return len(self.points)

    def flat(self):
        return [x for p in self.points for x in p]

    def affine_rank(self):
        """Dimension of the affine hull."""
        if len(self.points) <= 1:
            return 0
        base = self.points[0]
        diffs = [[p[i] - base[i] for i in range(self.dim)]
                 for p in self.points[1:]]
        flat = [x for row in diffs for x in row]
        return kernels.rank_entries(flat, len(diffs), self.dim)


@dataclass(frozen=True)
class HullResult:
    vertices: PointSet
    nonvertices: tuple
    cube_points_in_hull: Optional[tuple]


# vertex_hull lists the cube points in the hull of 0/1 input up to this
# dimension; past it there are too many to test one LP each
CUBE_DIM_LIMIT = 12


def _nonvertices(points):
    """The points inside the convex hull of the others, in point order
    (one exact rational feasibility test per point)."""
    for i, p in enumerate(points):
        others = points[:i] + points[i + 1:]
        if others and in_convex_hull(p, others):
            yield p


def vertex_hull(ps):
    """Split a point set into hull vertices and interior/boundary points.

    A point is a vertex exactly when it is outside the convex hull of the
    other points (exact rational feasibility test). For 0/1 input of
    dimension at most ``CUBE_DIM_LIMIT`` the full list of cube points
    inside the hull is returned as well.
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


@dataclass(frozen=True)
class UnimodularityVerdict:
    is_unimodular: bool
    witness: Optional[tuple]  # ((d+1) point indices, determinant)


def is_unimodular_polytope(ps):
    """Does every full-dimensional vertex simplex span a lattice basis?

    Requires a full-dimensional input in convex position (each point a
    vertex). The (d+1)-subset determinants decide: all in {-1, 0, 1} means
    unimodular, and convex position then follows. Otherwise the first
    violating (d+1)-subset is the witness, once an exact LP per point has
    found no point inside the hull of the others.
    """
    if ps.affine_rank() != ps.dim:
        raise PreconditionError(
            f"point set is not full-dimensional (affine rank "
            f"{ps.affine_rank()} < {ps.dim})")
    hit = kernels.unimodular_violation(ps.flat(), len(ps.points), ps.dim)
    if hit is None:
        # a point in the hull of the others lies in a full-dimensional
        # simplex of them (Caratheodory); a unimodular simplex holds no
        # lattice point but its vertices, so the set is in convex position
        return UnimodularityVerdict(True, None)
    nonvertex = next(_nonvertices(ps.points), None)
    if nonvertex is not None:
        raise PreconditionError(
            f"point set is not in convex position: {nonvertex} "
            f"is not a vertex")
    return UnimodularityVerdict(False, (tuple(hit[0]), hit[1]))


def edge_polytope(nvertices, part_a, edges):
    """Points e_i + e_j for the edges of a bipartite graph with given parts."""
    part_a = frozenset(part_a)
    if not part_a <= set(range(nvertices)):
        raise UsageError("part A references unknown vertices")
    pts = []
    for (u, v) in edges:
        if not (0 <= u < nvertices and 0 <= v < nvertices):
            raise UsageError(f"edge ({u},{v}) references unknown vertex")
        if (u in part_a) == (v in part_a):
            raise StructureError(
                f"edge ({u},{v}) stays inside one part; graph is not "
                f"bipartite with the declared parts")
        p = [0] * nvertices
        p[u] += 1
        p[v] += 1
        pts.append(tuple(p))
    return PointSet.from_points(dict.fromkeys(pts))


def complete_bipartite_edges(na, nb):
    """Edge list of K_{na,nb} with part A = {0..na-1}."""
    return [(i, na + j) for i in range(na) for j in range(nb)]


def simplex_product(a, b):
    """Vertex set of the product of two standard simplices, in dimension a+b."""
    if a < 0 or b < 0:
        raise UsageError("simplex dimensions must be nonnegative")

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
    Z^dim  aff(ps) maps onto Z^r, r = affine rank; unimodularity and
    lattice isomorphism are preserved. Already full-dimensional sets come
    back unchanged up to translation.
    """
    base = ps.points[0]
    diffs = [tuple(p[i] - base[i] for i in range(ps.dim)) for p in ps.points[1:]]
    if not diffs:
        return PointSet(0, ((),))
    d_mat = IntMatrix.from_rows(diffs)
    # saturation of the difference row space: kernel of the kernel
    _, u1, piv1 = linsolve.row_hnf(d_mat.transpose())
    kernel_rows = [u1.entries[i] for i in range(len(piv1), u1.rows)]
    if kernel_rows:
        k_mat = IntMatrix.from_rows(kernel_rows)
        _, u2, piv2 = linsolve.row_hnf(k_mat.transpose())
        basis_rows = [u2.entries[i] for i in range(len(piv2), u2.rows)]
    else:
        basis_rows = [tuple(1 if j == i else 0 for j in range(ps.dim))
                      for i in range(ps.dim)]
    basis = IntMatrix.from_rows(basis_rows)
    solve = linsolve.left_integer_solver(basis)
    coords = [(0,) * basis.rows]
    for diff in diffs:
        c = solve(diff)
        if c is None:
            raise AssertionError("difference not in the saturated lattice")
        coords.append(c)
    return PointSet(basis.rows, tuple(coords))


def _leftmost_affine_frame(points, d):
    """Indices of the leftmost affinely independent (d+1)-subsequence:
    point 0 plus the HNF pivots of the difference vectors."""
    base = points[0]
    diffs = IntMatrix.from_columns(
        [[p[k] - base[k] for k in range(len(base))] for p in points[1:]],
        rows=len(base))
    pivots = linsolve.row_hnf(diffs)[2]
    if len(pivots) < d:
        return None
    return [0] + [j + 1 for j in pivots[:d]]


def lattice_isomorphic(p, q):
    """Exhaustive affine lattice-isomorphism test of two point sets.

    Both sets are first re-coordinatized to full dimension. One affinely
    independent frame of P is fixed (the leftmost in stored order); every
    ordered frame of Q with the same simplex volume is tried as its image,
    and the unique affine map is accepted when it is integral and maps the
    point sets bijectively.
    """
    pe = affine_lattice_coordinates(p)
    qe = affine_lattice_coordinates(q)
    if pe.dim != qe.dim or len(pe.points) != len(qe.points):
        return False
    d = pe.dim
    if d == 0:
        return True
    p_frame = _leftmost_affine_frame(pe.points, d)
    if p_frame is None:
        raise AssertionError("embedded set lost full dimensionality")
    p0 = pe.points[p_frame[0]]
    p_cols = [[pe.points[i][k] - p0[k] for k in range(d)] for i in p_frame[1:]]
    # P_frame^{-1} = p_adj / p_det with p_adj the integral adjugate:
    # p_adj[t][c] is the cofactor of P_frame at row c, column t
    p_det = _simplex_det(pe.points, p_frame)
    p_adj = [[(-1) ** (t + c) * kernels.det_entries(
                  [p_cols[s][k] for k in range(d) if k != c
                   for s in range(d) if s != t], d - 1)
              for c in range(d)] for t in range(d)]
    q_pts = qe.points
    q_set = set(q_pts)

    def try_map(frame):
        q0 = q_pts[frame[0]]
        q_cols = [[q_pts[i][k] - q0[k] for k in range(d)] for i in frame[1:]]
        # L = Q_frame * P_frame^{-1}; build as rows of the linear map. Its
        # determinant is +-1 since the frames have equal |det|.
        lin_int = []
        for r in range(d):
            row = []
            for c in range(d):
                s = sum(q_cols[t][r] * p_adj[t][c] for t in range(d))
                if s % p_det:
                    return False
                row.append(s // p_det)
            lin_int.append(row)
        shift = [q0[r] - sum(lin_int[r][c] * p0[c] for c in range(d))
                 for r in range(d)]
        # L is injective and |P| = |Q|, so P -> Q is a bijection as soon
        # as every image lies in Q
        return all(tuple(sum(lin_int[r][c] * pt[c] for c in range(d))
                         + shift[r] for r in range(d)) in q_set
                   for pt in pe.points)

    # a lattice isomorphism keeps simplex volumes, so only the (d+1)-subsets
    # of Q with P's frame volume can be the frame's image
    return any(try_map(frame)
               for sub in combinations(range(len(q_pts)), d + 1)
               if abs(_simplex_det(q_pts, sub)) == abs(p_det)
               for frame in permutations(sub))


def _simplex_det(pts, sub):
    """Determinant of the difference vectors from pts[sub[0]] to the
    other points of ``sub``; +-(d! times the simplex volume)."""
    base = pts[sub[0]]
    d = len(base)
    return kernels.det_entries(
        [pts[i][k] - base[k] for i in sub[1:] for k in range(d)], d)


def fingerprint(ps):
    """Affine-unimodular invariants used to pre-sort isomorphism classes.

    Components: intrinsic dimension, vertex count, sorted multiset of
    pairwise lattice distances (gcd of coordinate differences), the
    number of affinely independent (d+1)-subsets, and its sorted
    per-vertex distribution. Equal fingerprints do not imply isomorphism;
    distinct fingerprints prove non-isomorphism.
    """
    from math import gcd

    pe = affine_lattice_coordinates(ps)
    d, pts = pe.dim, pe.points
    dists = []
    for a, b in combinations(pts, 2):
        g = 0
        for x, y in zip(a, b):
            g = gcd(g, abs(x - y))
        dists.append(g)
    indep_total = 0
    per_vertex = [0] * len(pts)
    if d > 0:
        for sub in combinations(range(len(pts)), d + 1):
            if _simplex_det(pts, sub) != 0:
                indep_total += 1
                for i in sub:
                    per_vertex[i] += 1
    return (d, len(pts), tuple(sorted(dists)), indep_total,
            tuple(sorted(per_vertex)))


def fingerprint_string(fp):
    d, n, dists, indep, per_vertex = fp
    return f"d{d}An{n}:g{','.join(map(str, dists))}:s{indep}:v{','.join(map(str, per_vertex))}"


@dataclass(frozen=True, eq=False)
class PolytopeClass:
    """Isomorphism class of a unimodular polytope with a 0/1 representative."""

    dimension: int
    vertex_count: int
    vertices: PointSet
    fingerprint: tuple

    def to_json_dict(self):
        return {
            "dimension": self.dimension,
            "vertex_count": self.vertex_count,
            "vertices": [list(p) for p in self.vertices.points],
            "fingerprint": fingerprint_string(self.fingerprint),
        }


def _cube_symmetry_index_perms(d):
    """Hyperoctahedral group as permutations of the 2^d cube point indices."""
    pts = list(product((0, 1), repeat=d))
    index = {p: i for i, p in enumerate(pts)}
    perms = []
    for sigma in permutations(range(d)):
        for flips in product((0, 1), repeat=d):
            perm = [0] * len(pts)
            for i, p in enumerate(pts):
                q = tuple(p[sigma[k]] ^ flips[k] for k in range(d))
                perm[i] = index[q]
            if perm != list(range(len(pts))):
                perms.append(perm)
    return pts, perms


def _candidate_subsets(d, pruned):
    pts, perms = _cube_symmetry_index_perms(d)
    min_size = d + 1
    max_size = h(d + 1) if pruned else 1 << d
    max_size = min(max_size, 1 << d)
    if d <= 4:
        masks = kernels.canonical_masks(1 << d, perms, min_size, max_size)
        for mask in masks:
            yield [pts[i] for i in range(1 << d) if mask >> i & 1]
        return
    # stretch path (d = 5): orderly backtracking over point indices; a
    # prefix is pruned when some symmetry maps it to a lex-smaller one
    npts = 1 << d

    def canonical(sub):
        for p in perms:
            t = sorted(p[i] for i in sub)
            if t < sub:
                return False
        return True

    def rec(sub, start):
        if len(sub) >= min_size:
            yield [pts[i] for i in sub]
        if len(sub) == max_size:
            return
        for i in range(start, npts):
            nxt = sub + [i]
            if canonical(nxt):
                yield from rec(nxt, i + 1)

    yield from rec([], 0)


@dataclass(frozen=True)
class ClassificationResult:
    dimension: int
    classes: tuple
    count: int
    subsets_examined: int

    def to_json_list(self):
        return [c.to_json_dict() for c in self.classes]


def classify_unimodular(d, pruned=True, stretch=False):
    """All isomorphism classes of unimodular polytopes of dimension d.

    Enumerates vertex subsets of the 0/1 cube (every unimodular polytope
    is isomorphic to one spanned by cube points) up to cube symmetry,
    keeps the full-dimensional ones whose (d+1)-subset determinants are
    all in {-1, 0, 1}, and merges the survivors under lattice isomorphism.

    No hull test is needed: a point in the hull of the others, or a cube
    point in the hull of the subset, lies in a full-dimensional simplex
    of the subset (Caratheodory), and a unimodular simplex holds no
    lattice point but its vertices. So every survivor is in convex
    position and its hull meets the cube exactly in the chosen points.

    ``pruned`` caps subset sizes at the proven vertex bound h(d+1); the
    unpruned mode (d <= 3) enumerates every size, keeping those checks
    independent of the bound being verified. d = 5 requires ``stretch``
    and a lot of patience; d >= 6 is out of scope.
    """
    if d < 1:
        raise UsageError("classification needs d >= 1")
    if d == 5 and not stretch:
        raise BudgetExceeded(
            "d = 5 classification exceeds desk scale; pass stretch=True")
    if d > 5:
        raise UsageError("classification beyond d = 5 is not supported")
    if not pruned and d > 3:
        raise UsageError("unpruned enumeration is limited to d <= 3")

    classes = []
    examined = 0
    for subset in _candidate_subsets(d, pruned):
        examined += 1
        ps = PointSet(d, tuple(subset))
        if ps.affine_rank() != d:
            continue
        if kernels.unimodular_violation(ps.flat(), len(subset), d) is not None:
            continue
        fp = fingerprint(ps)
        found = False
        for cls in classes:
            if cls.fingerprint == fp and lattice_isomorphic(cls.vertices, ps):
                found = True
                break
        if not found:
            classes.append(PolytopeClass(d, len(subset), ps, fp))
    ordered = tuple(sorted(classes,
                           key=lambda c: (c.fingerprint, c.vertices.points)))
    return ClassificationResult(d, ordered, len(ordered), examined)


@dataclass(frozen=True)
class VertexBoundReport:
    dimension: int
    vertex_count: int
    bound: int
    ok: bool
    tight: bool

    def to_json_dict(self):
        return self.__dict__.copy()


def vertex_bound_check(ps):
    """Vertex count of a certified unimodular polytope against its bound."""
    pe = affine_lattice_coordinates(ps)
    verdict = is_unimodular_polytope(pe)
    if not verdict.is_unimodular:
        raise PreconditionError(
            f"not a unimodular polytope; witness {verdict.witness}")
    d = pe.dim
    bound = 10 if d == 4 else h(d + 1)
    n = len(pe.points)
    return VertexBoundReport(d, n, bound, n <= bound, n == bound)


@dataclass(frozen=True)
class NormalizeResult:
    matrix: IntMatrix       # (I | B) after the change of basis
    transform: IntMatrix    # the basis columns R, with M = R (I|B) P^T
    permutation: tuple      # output column k came from input column perm[k]


def normalize_standard_form(m):
    """Left-multiply by the inverse of the leftmost basis columns.

    Requires a polytopal unimodular matrix of full row rank. The basis
    columns are the pivots of the row HNF U * M = H; they form a lattice
    basis (their determinant is +-1 by unimodularity), so H is the identity
    on them and U is their inverse. They are permuted to the front, so the
    output has the shape (I | B) with all column sums 1, and both B and
    (I|B) are TU (B by the unimodularity check, (I|B) re-certified before
    returning).
    """
    if m.rank() != m.rows:
        raise PreconditionError("normalization requires full row rank")
    if polytopal_certificate(m) is None:
        raise PreconditionError("matrix is not polytopal")
    if not is_unimodular(m):
        raise PreconditionError("matrix is not unimodular")
    hnf, _, frame = linsolve.row_hnf(m)
    transform = m.submatrix(range(m.rows), frame)
    rest = [j for j in range(m.cols) if j not in frame]
    perm = frame + tuple(rest)
    out = IntMatrix.from_columns([hnf.col(j) for j in perm], rows=m.rows)
    if out.submatrix(range(m.rows), range(m.rows)) != IntMatrix.identity(m.rows):
        raise AssertionError("basis columns did not normalize to the identity")
    if any(sum(out.col(j)) != 1 for j in range(out.cols)):
        raise AssertionError("normalized columns do not sum to 1")
    if not is_totally_unimodular(out).is_tu:
        raise AssertionError("normalized matrix failed TU re-certification")
    return NormalizeResult(out, transform, perm)
