"""The benchmark's reference checks catch what they must.

    python3 -m pytest perfbench/test_reference.py
"""

import random

import reference as ref


def test_planted_block_is_flagged_with_its_minor():
    rng = random.Random(3)
    for shape in ((3, 4), (5, 7), (7, 9)):
        mat = ref.plant_block(rng, ref.random_network(rng, *shape))
        hit = ref.tu_violation(mat)
        assert hit is not None
        rows, cols, value = hit
        assert abs(value) == 2
        assert ref.witness_ok(mat, rows, cols, value)


def test_network_matrices_pass_the_minor_scan():
    rng = random.Random(4)
    for shape in ((3, 4), (5, 7), (6, 8)):
        assert ref.tu_violation(ref.random_network(rng, *shape)) is None


def test_network_matrix_of_a_path():
    # path 0 -> 1 <- 2; arc (0, 2) crosses the first tree arc forwards and
    # the second backwards
    assert ref.network_matrix(3, [(0, 1), (2, 1)], [(0, 2), (2, 0)]) == [
        [1, -1], [-1, 1]]


def test_determinant_and_certificate_checks():
    assert ref.det([[2, 1], [1, 1]]) == 1
    assert ref.det([[0, 1, 0], [1, 0, 0], [0, 0, 3]]) == -3
    assert not ref.witness_ok([[1, 1], [1, -1]], (0, 1), (0, 1), 2)
    mat = ref.complete_bipartite_minus_row(4)
    assert ref.functional_ok(mat, [1, 1, 0, 0])
    assert not ref.functional_ok(mat, [1, 0, 0, 0])


def test_unimodular_constructions():
    for a, b in ((1, 1), (2, 2), (1, 3)):
        dets = ref.simplex_dets(ref.simplex_product_points(a, b))
        assert set(dets) <= {-1, 0, 1}
    rng = random.Random(5)
    edges = ref.random_bipartite_edges(rng, 3, 4, 9)
    mat = ref.incidence_minus_row(3, 4, edges)
    assert ref.rank(mat) == len(mat)
    assert ref.tu_violation(mat) is None
    assert ref.functional_ok(mat, [1, 1, 1, 0, 0, 0])


def test_round_trip_check_rejects_a_wrong_rebuild():
    mat = [[1, 0, 1], [0, 1, 0]]
    normal = [[1, 0, 1], [0, 1, 0]]
    ident = [[1, 0], [0, 1]]
    assert ref.round_trip_ok(mat, ident, normal, (0, 1, 2))
    assert not ref.round_trip_ok(mat, ident, normal, (1, 0, 2))
    assert not ref.round_trip_ok(mat, [[2, 0], [0, 1]], normal, (0, 1, 2))
