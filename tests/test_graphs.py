"""graphical surface: network matrices, transpose extension, patterns, bounds."""

import random

import pytest

from tumax.certify import is_totally_unimodular
from tumax.errors import FormatError, PreconditionError, UsageError
from tumax.graphs import (
    ArcGraph,
    _underlying_bipartite,
    edge_patterns,
    network_matrix,
    parse_graph_text,
    parse_paths_text,
    transpose_extension,
    verify_network_column_bound,
    verify_pattern_bounds,
    verify_transpose_row_bound,
)
from tumax.matrix import IntMatrix

from oracles import (
    is_bipartite_bruteforce,
    is_spanning_tree,
    network_column_bfs,
    random_tree_arcs,
)


def path_tree(n):
    return ArcGraph.from_arcs(n, [(i, i + 1) for i in range(n - 1)])


def test_network_matrix_tree_arc_columns():
    t = path_tree(3)
    d = ArcGraph.from_arcs(3, [(0, 1), (2, 1), (0, 2)])
    m = network_matrix(t, d)
    assert m.col(0) == (1, 0)     # same arc, same orientation
    assert m.col(1) == (0, -1)    # reversed tree arc
    assert m.col(2) == (1, 1)     # the two-step path


def test_network_matrix_against_bfs_oracle():
    rng = random.Random(30)
    for _ in range(150):
        n = rng.randint(2, 8)
        arcs = random_tree_arcs(rng, n)
        t = ArcGraph.from_arcs(n, arcs)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 6))]
        d = ArcGraph.from_arcs(n, pairs)
        m = network_matrix(t, d)
        for j, (s, tt) in enumerate(pairs):
            assert list(m.col(j)) == network_column_bfs(n, arcs, s, tt)


def test_network_matrix_is_tu():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(2, 6)
        t = ArcGraph.from_arcs(n, random_tree_arcs(rng, n))
        d = ArcGraph.from_arcs(n, [(rng.randrange(n), rng.randrange(n))
                                   for _ in range(rng.randint(1, 5))])
        assert is_totally_unimodular(network_matrix(t, d)).is_tu


def test_network_matrix_errors():
    not_tree = ArcGraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(PreconditionError,
                       match="^first argument must be a spanning directed tree$"):
        network_matrix(not_tree, ArcGraph.from_arcs(3, []))
    with pytest.raises(UsageError):
        ArcGraph.from_arcs(2, [(0, 5)])
    t = path_tree(2)
    with pytest.raises(UsageError):
        network_matrix(t, ArcGraph.from_arcs(4, [(0, 3)]))


def test_arc_graphs_take_only_ints():
    for vertices, arcs in ((3, [(0.7, 2.9)]), (3, [(0, True)]),
                           (3.5, [(0, 1)]), (True, [])):
        with pytest.raises(UsageError, match="integer"):
            ArcGraph.from_arcs(vertices, arcs)
    for arcs in ([(0, 1, 2)], [(0,)], [()]):
        with pytest.raises(UsageError, match="pair"):
            ArcGraph.from_arcs(3, arcs)
    assert ArcGraph.from_arcs(3, [[0, 2]]).arcs == ((0, 2),)


def test_arcs_and_paths_must_be_sequences():
    with pytest.raises(UsageError) as info:
        ArcGraph.from_arcs(3, [(0, 1), 5])
    assert str(info.value) == "arc must be a sequence of integers, got 5"
    with pytest.raises(UsageError, match="^path must be a sequence"):
        verify_pattern_bounds(path_tree(3), [(0, 1), 7])
    # the whole arc or path list
    with pytest.raises(UsageError) as info:
        ArcGraph.from_arcs(3, 5)
    assert str(info.value) == "arcs must be a sequence of vertex pairs, got 5"
    for analysis in (edge_patterns, verify_pattern_bounds):
        with pytest.raises(UsageError) as info:
            analysis(path_tree(3), 7)
        assert str(info.value) == ("paths must be a sequence of vertex "
                                   "pairs, got 7")


def test_pattern_bounds_read_the_paths_once():
    t = path_tree(4)
    paths = [(0, 3), (1, 2), (2, 3)]
    assert (verify_pattern_bounds(t, iter(paths))
            == verify_pattern_bounds(t, paths))


def test_paths_take_only_pairs_of_ints():
    t = path_tree(3)
    for paths, what in (([(0, 1.5)], "integer"), ([(0, True)], "integer"),
                        ([(0, 1, 2)], "pair"), ([(0,)], "pair")):
        for analysis in (edge_patterns, verify_pattern_bounds):
            with pytest.raises(UsageError, match=what):
                analysis(t, [(0, 1)] + paths)
    assert edge_patterns(t, [[0, 2]]) == {1}


def test_is_tree_matches_the_union_find_oracle():
    rng = random.Random(39)
    trees = 0
    for n in range(8):
        cases = [random_tree_arcs(rng, n)]
        if n >= 4:
            # n - 1 arcs: a cycle on n - 1 vertices beside an isolated one
            cases.append([(v, (v + 1) % (n - 1)) for v in range(n - 1)])
        for _ in range(60):
            # n - 1 arcs most of the time, with self-loops and parallel arcs
            k = max(0, n - 1 + rng.choice((0, 0, 0, -1, 1)))
            cases.append([(rng.randrange(n), rng.randrange(n))
                           for _ in range(k)] if n else [])
        for arcs in cases:
            want = is_spanning_tree(n, arcs)
            assert ArcGraph.from_arcs(n, arcs).is_tree() == want, (n, arcs)
            trees += want
    assert not ArcGraph.from_arcs(0, []).is_tree()
    assert ArcGraph.from_arcs(1, []).is_tree()
    assert not ArcGraph.from_arcs(2, [(1, 1)]).is_tree()
    assert not ArcGraph.from_arcs(3, [(0, 1), (0, 1)]).is_tree()
    assert trees >= 20


def test_arc_reversal_negates():
    rng = random.Random(32)
    n = 6
    arcs = random_tree_arcs(rng, n)
    t = ArcGraph.from_arcs(n, arcs)
    d_arcs = [(0, 4), (3, 1), (5, 2)]
    m = network_matrix(t, ArcGraph.from_arcs(n, d_arcs))
    # reversing a digraph arc negates its column
    flipped = [(b, a) for (a, b) in d_arcs]
    m2 = network_matrix(t, ArcGraph.from_arcs(n, flipped))
    assert m2.entries == tuple(tuple(-x for x in row) for row in m.entries)
    # reversing a tree arc negates its row
    t2_arcs = [(arcs[0][1], arcs[0][0])] + arcs[1:]
    m3 = network_matrix(ArcGraph.from_arcs(n, t2_arcs),
                        ArcGraph.from_arcs(n, d_arcs))
    assert m3.row(0) == tuple(-x for x in m.row(0))
    assert m3.entries[1:] == m.entries[1:]


def test_transpose_extension_degenerate():
    t = path_tree(3)
    d = ArcGraph.from_arcs(3, [])
    mprime = IntMatrix(0, 2, ())
    ext = transpose_extension(mprime, t, d)
    assert ext.matrix == mprime
    assert ext.tree == t


def test_transpose_extension_single_arc():
    t = path_tree(2)
    d = ArcGraph.from_arcs(2, [(0, 1)])
    mprime = network_matrix(t, d).transpose()
    assert mprime == IntMatrix.from_rows([[1]])
    ext = transpose_extension(mprime, t, d)
    assert ext.matrix == IntMatrix.from_rows([[1, 1]])
    assert ext.tree.vertices == 3
    assert network_matrix(ext.tree, ext.digraph) == ext.matrix.transpose()


def test_transpose_extension_round_trip_random():
    rng = random.Random(33)
    for _ in range(60):
        n = rng.randint(2, 6)
        t = ArcGraph.from_arcs(n, random_tree_arcs(rng, n))
        d = ArcGraph.from_arcs(n, [(rng.randrange(n), rng.randrange(n))
                                   for _ in range(rng.randint(1, 4))])
        mprime = network_matrix(t, d).transpose()
        ext = transpose_extension(mprime, t, d)
        k = len(d.arcs)
        assert ext.matrix == IntMatrix.identity(k).hstack(mprime)
        assert network_matrix(ext.tree, ext.digraph) == ext.matrix.transpose()


def test_transpose_extension_witness_mismatch():
    t = path_tree(3)
    d = ArcGraph.from_arcs(3, [(0, 2)])
    wrong = IntMatrix.from_rows([[1, 0]])
    with pytest.raises(PreconditionError,
                       match="^realization does not reproduce the matrix$"):
        transpose_extension(wrong, t, d)


def test_edge_patterns_two_crossing_paths():
    t = path_tree(4)
    # arc 0-1 carries path 0, arc 1-2 both, arc 2-3 path 1
    assert edge_patterns(t, [(0, 2), (1, 3)]) == {0b01, 0b11, 0b10}


def test_edge_patterns_disjoint_paths_are_singletons():
    t = path_tree(7)
    assert edge_patterns(t, [(0, 2), (3, 5)]) == {0b01, 0b10}


def test_edge_patterns_relabel_invariance():
    rng = random.Random(34)
    for _ in range(40):
        n = rng.randint(3, 7)
        arcs = random_tree_arcs(rng, n)
        paths = [(rng.randrange(n), rng.randrange(n)) for _ in range(3)]
        base = edge_patterns(ArcGraph.from_arcs(n, arcs), paths)
        relab = list(range(n))
        rng.shuffle(relab)
        arcs2 = [(relab[a], relab[b]) for a, b in arcs]
        paths2 = [(relab[a], relab[b]) for a, b in paths]
        assert edge_patterns(ArcGraph.from_arcs(n, arcs2), paths2) == base


def test_pattern_bounds_star_and_random():
    star = ArcGraph.from_arcs(5, [(0, i) for i in range(1, 5)])
    rep = verify_pattern_bounds(star, [(1, 2), (2, 3), (3, 4)])
    assert rep.bound == 6 and rep.bound_ok
    assert rep.odd_bound == 4 and rep.odd_bound_ok
    rng = random.Random(35)
    for _ in range(150):
        n = rng.randint(3, 8)
        t = ArcGraph.from_arcs(n, random_tree_arcs(rng, n))
        m = rng.randint(2, 4)
        paths = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
        rep = verify_pattern_bounds(t, paths)
        assert rep.bound_ok
        assert rep.odd_bound_ok in (True, None)


def test_edge_patterns_match_the_bfs_oracle():
    # a pattern is a set of paths, held in a Python int of any width: past
    # 64 paths too
    rng = random.Random(36)
    for npaths in range(1, 141):
        n = rng.randint(2, 10)
        arcs = random_tree_arcs(rng, n)
        paths = [(rng.randrange(n), rng.randrange(n)) for _ in range(npaths)]
        masks = [0] * len(arcs)
        for j, (s, t) in enumerate(paths):
            for i, e in enumerate(network_column_bfs(n, arcs, s, t)):
                masks[i] |= bool(e) << j
        want = set(masks) - {0}
        t = ArcGraph.from_arcs(n, arcs)
        assert edge_patterns(t, paths) == want
        rep = verify_pattern_bounds(t, paths)
        assert rep.npaths == npaths and rep.pattern_count == len(want)
        assert rep.odd_count == sum(mask.bit_count() & 1 for mask in want)
        assert rep.bound_ok is (None if npaths < 2 else True)
        assert rep.odd_bound_ok is (None if npaths < 3 else True)


def test_pattern_m2_bound_only():
    rep = verify_pattern_bounds(path_tree(3), [(0, 1), (1, 2)])
    assert rep.odd_bound is None and rep.odd_bound_ok is None
    assert rep.bound == 3


def test_network_column_bound_equality_instance():
    # path tree with 3 arcs; D = K_{2,2} between {0,2} and {1,3}
    t = path_tree(4)
    d = ArcGraph.from_arcs(4, [(0, 1), (0, 3), (1, 2), (2, 3)])
    rep = verify_network_column_bound(t, d)
    assert rep.applicable
    assert rep.num_cols == 4 and rep.num_tree_arcs == 3
    assert rep.bound_ok and rep.bipartite and rep.equality and rep.ok
    assert rep.num_tree_arcs % 2 == 1


def test_network_column_bound_random_sweep():
    rng = random.Random(36)
    applicable_seen = 0
    for _ in range(400):
        n = rng.randint(2, 8)
        arcs = random_tree_arcs(rng, n)
        t = ArcGraph.from_arcs(n, arcs)
        # draw candidate arcs whose columns have positive odd sums
        chosen = []
        seen_cols = set()
        options = [(a, b) for a in range(n) for b in range(n) if a != b]
        rng.shuffle(options)
        for (a, b) in options:
            col = tuple(network_column_bfs(n, arcs, a, b))
            s = sum(col)
            if s > 0 and s % 2 == 1 and col not in seen_cols:
                seen_cols.add(col)
                chosen.append((a, b))
        if not chosen:
            continue
        keep = rng.randint(1, len(chosen))
        d = ArcGraph.from_arcs(n, chosen[:keep])
        rep = verify_network_column_bound(t, d)
        assert rep.applicable
        applicable_seen += 1
        assert rep.bound_ok
        assert rep.bipartite
    assert applicable_seen >= 300


def _cycle(n, start=0):
    return [(start + i, start + (i + 1) % n) for i in range(n)]


BIPARTITE_CASES = [
    ("no-vertices", 0, [], True),
    ("isolated-vertices", 3, [], True),
    ("triangle", 3, _cycle(3), False),
    ("five-cycle", 5, _cycle(5), False),
    ("four-cycle", 4, _cycle(4), True),
    ("six-cycle", 6, _cycle(6), True),
    ("antiparallel-pair", 2, [(0, 1), (1, 0)], True),
    ("loop-alone", 1, [(0, 0)], False),
    ("loop-on-a-path", 3, [(0, 1), (1, 2), (2, 2)], False),
    ("forest", 7, [(0, 1), (1, 2), (1, 3), (4, 5)], True),
    ("even-then-odd-component", 7, _cycle(4) + _cycle(3, start=4), False),
    ("odd-cycle-past-a-tree", 6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
                                  (5, 3)], False),
]


@pytest.mark.parametrize("case, n, arcs, want", BIPARTITE_CASES,
                         ids=[c[0] for c in BIPARTITE_CASES])
def test_underlying_bipartite_examples(case, n, arcs, want):
    assert is_bipartite_bruteforce(n, arcs) is want
    assert _underlying_bipartite(ArcGraph.from_arcs(n, arcs)) is want


def test_underlying_bipartite_matches_the_colouring_oracle():
    rng = random.Random(38)
    seen = {True: 0, False: 0}
    for _ in range(400):
        n = rng.randint(1, 8)
        arcs = [(rng.randrange(n), rng.randrange(n))
                for _ in range(rng.randint(0, n + 2))]
        want = is_bipartite_bruteforce(n, arcs)
        assert _underlying_bipartite(ArcGraph.from_arcs(n, arcs)) is want, arcs
        seen[want] += 1
    assert min(seen.values()) >= 100


def test_transpose_row_bound_reports():
    rng = random.Random(37)
    for _ in range(200):
        n = rng.randint(2, 9)
        t = ArcGraph.from_arcs(n, random_tree_arcs(rng, n))
        na = rng.randint(1, 5)
        d = ArcGraph.from_arcs(n, [(rng.randrange(n), rng.randrange(n))
                                   for _ in range(na)])
        m = network_matrix(t, d)
        rep = verify_transpose_row_bound(m)
        assert rep.num_cols == na
        if na >= 2:
            assert rep.pos_ok
        else:
            assert rep.pos_ok is None
        if na >= 3:
            assert rep.odd_ok
        else:
            assert rep.odd_ok is None


def test_mod2_reduction_keeps_positive_rows_distinct():
    rng = random.Random(38)
    for _ in range(150):
        n = rng.randint(2, 8)
        t = ArcGraph.from_arcs(n, random_tree_arcs(rng, n))
        d = ArcGraph.from_arcs(n, [(rng.randrange(n), rng.randrange(n))
                                   for _ in range(rng.randint(1, 5))])
        m = network_matrix(t, d)
        pos = [m.row(i) for i in range(m.rows) if sum(m.row(i)) > 0]
        distinct = set(pos)
        mod2 = {tuple(x % 2 for x in r) for r in distinct}
        assert len(mod2) == len(distinct)


def test_graph_text_round_trip():
    g = ArcGraph.from_arcs(4, [(0, 1), (2, 3)])
    assert parse_graph_text("4 2\n0 1\n2 3\n") == g
    assert parse_paths_text("0 1\n2 3\n") == [(0, 1), (2, 3)]


@pytest.mark.parametrize("text,line", [
    ("3 1\n0 1\n1 2\n", 3),      # an arc past the header's count
    ("3 0\n\n0 1\n", 3),
    ("3 -1\n", 1),
    ("-3 0\n", 1),
])
def test_graph_text_rejects_what_the_header_does_not_cover(text, line):
    with pytest.raises(FormatError) as err:
        parse_graph_text(text)
    assert err.value.line == line


def test_graph_text_allows_trailing_blank_lines():
    assert parse_graph_text("2 1\n0 1\n\n  \n") == ArcGraph(2, ((0, 1),))
