"""The ``polytopes`` workload: classification, then normalization round trips.

A pass runs ``classify --d 1..4`` through ``tumax.cli.run`` and then one
round trip per member of a corpus built like the translation round-trip
acceptance test: each member is a polytopal unimodular matrix of full row
rank, scrambled by a row permutation, row signs, one elementary row
operation and a column shuffle. A round trip runs
``polytopes.normalize_standard_form`` and a lattice-isomorphism test of
the member's columns against the normalized columns. The corpus make-up
is fixed; the seed picks the random graphs and scrambles, fresh for every
pass, and the order within each phase.
"""

import random

import reference as ref
from op import Op

from tumax import cli, polytopes
from tumax.matrix import IntMatrix

CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 13}
MAX_VERTICES_D4 = 10

# The extremal 7-row matrix (7 x 16), where the order-m minor scan of the
# unimodularity check dominates, twice per pass. The 8-row one (8 x 20) is
# left out: its single round trip takes about 7 s and would make every pass
# about 40 % longer.
LARGE = ((7, 2),)
# Small members, cycled through SMALL_MEMBERS times per pass (12 round trips
# of each). They take 0.2-60 ms each and about 2.5 s together; with 4 of
# each, the median round trip fell in the gap between two member kinds and
# op_p50_ms spread by 0.16 over ten seeds.
SMALL_MEMBERS = 180
EXTREMAL = (1, 2, 3, 4, 6)
SIMPLEX_PRODUCTS = ((1, 1), (1, 2), (2, 2), (3, 1), (1, 3), (2, 3))
# Fixed bipartite graphs (the seed only scrambles them), so that what a
# round trip costs does not depend on the seed.
_BASE_RNG = random.Random(20241)
BIPARTITE = [ref.incidence_minus_row(
    na, nb, ref.random_bipartite_edges(_BASE_RNG, na, nb, ne))
    for na, nb, ne in ((2, 2, 4), (2, 3, 5), (3, 3, 7), (3, 4, 9))]
SMALL = ([ref.complete_bipartite_minus_row(m) for m in EXTREMAL]
         + [ref.with_ones_row(ref.simplex_product_points(a, b))
            for a, b in SIMPLEX_PRODUCTS]
         + BIPARTITE)


def check_classes(d, rep):
    res = rep.result
    classes = res["classes"]
    if rep.exit_status != 0 or res["count"] != CLASS_COUNTS[d]:
        return False
    if len(classes) != res["count"]:
        return False
    if d == 4 and max(c["vertex_count"] for c in classes) != MAX_VERTICES_D4:
        return False
    for c in classes:
        pts = [tuple(p) for p in c["vertices"]]
        if (c["dimension"] != d or c["vertex_count"] != len(pts)
                or len(set(pts)) != len(pts)
                or any(x not in (0, 1) for p in pts for x in p)
                or ref.affine_rank(pts) != d):
            return False
        if any(v not in (-1, 0, 1) for v in ref.simplex_dets(pts)):
            return False
    return True


def round_trip(m):
    res = polytopes.normalize_standard_form(m)
    iso = polytopes.lattice_isomorphic(
        polytopes.PointSet.from_matrix_columns(m),
        polytopes.PointSet.from_matrix_columns(res.matrix))
    return res, iso


def round_trip_op(mat):
    m = IntMatrix.from_rows(mat)

    def check(out):
        res, iso = out
        return iso is True and ref.round_trip_ok(
            mat, res.transform.to_lists(), res.matrix.to_lists(),
            res.permutation)
    return Op("normalize round trip", "normalize", lambda: round_trip(m),
              check)


def classify_op(d):
    argv = ["classify", "--d", str(d)]
    return Op("classify", "classify", lambda: cli.run(argv),
              lambda rep: check_classes(d, rep))


def corpus(rng):
    members = []
    for m, copies in LARGE:
        members += [ref.complete_bipartite_minus_row(m)] * copies
    members += [SMALL[i % len(SMALL)] for i in range(SMALL_MEMBERS)]
    return [ref.scramble(rng, mat) for mat in members]


class Workload:
    def __init__(self, seed, directory):
        self.seed = seed

    def warm_up_ops(self):
        return warm_up_ops(random.Random(self.seed * 1000 + 999))

    def pass_ops(self, k):
        return build_pass(random.Random(self.seed * 1000 + k))


def build_pass(rng):
    classify = [classify_op(d) for d in CLASS_COUNTS]
    trips = [round_trip_op(mat) for mat in corpus(rng)]
    rng.shuffle(classify)
    rng.shuffle(trips)
    return classify + trips


def warm_up_ops(rng):
    mat = ref.scramble(rng, ref.with_ones_row(ref.simplex_product_points(1, 2)))
    return [classify_op(2), round_trip_op(mat)]
