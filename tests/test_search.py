"""search surface: candidate spaces, DFS searches, pruning soundness."""

import random
from itertools import combinations

import pytest

from tumax import _pykernels, kernels
from tumax._pykernels import _PackedMinors
from tumax.certify import is_prepared, is_totally_unimodular
from tumax.cli import EXIT_BUDGET, EXIT_OK, run
from tumax.errors import UsageError
from tumax.families import bipartite_extremal, h
from tumax.matrix import IntMatrix
from tumax.search import (
    _index_perms,
    candidate_columns,
    max_odd_sum_tu_columns,
    max_polytopal_tu_columns,
    max_tu_columns,
)

from helpers import max_tu_subset_walk, packed_pair, random_tu_matrix
from oracles import (coordinate_index_perms, is_tu_bruteforce,
                     is_tu_by_minor_table, max_tu_subset_reference)


def test_candidate_columns_examples():
    assert candidate_columns(3, "polytopal") == [(-1, 1, 1), (1, -1, 1), (1, 1, -1)]
    assert candidate_columns(2, "polytopal") == []
    assert candidate_columns(1, "heller") == [(-1,), (0,), (1,)]
    odd3 = candidate_columns(3, "odd-sums")
    assert all(sum(v) > 0 and sum(v) % 2 == 1 for v in odd3)
    assert (1, 0, 0) not in odd3 and (1, 1, 1) in odd3


def test_candidate_errors():
    with pytest.raises(UsageError):
        candidate_columns(3, "nope")
    with pytest.raises(UsageError):
        max_polytopal_tu_columns(1)
    with pytest.raises(UsageError):
        max_polytopal_tu_columns(9)
    with pytest.raises(UsageError):
        max_tu_columns(4)


def test_polytopal_search_small_values():
    for m, want in ((2, 2), (3, 4), (4, 6)):
        res = max_polytopal_tu_columns(m)
        assert res.max_columns == want == h(m)
        assert res.complete and res.matches_expected
        assert res.witness.cols == want
        assert is_prepared(res.witness)
    # the m = 4 maximum is also attained by the bipartite family
    assert bipartite_extremal(4).cols == 6


def test_polytopal_search_m3_witness_is_single_extra_column():
    res = max_polytopal_tu_columns(3)
    assert res.witness.cols == 4
    # any pair of the three sum-1 candidates has a 2x2 minor of +-2
    cands = candidate_columns(3, "polytopal")
    for a, b in combinations(cands, 2):
        assert not is_tu_bruteforce(
            [[a[i], b[i]] for i in range(3)])


def test_heller_search_values_and_witness():
    for m, want in ((1, 3), (2, 7), (3, 13)):
        res = max_tu_columns(m)
        assert res.max_columns == want == m * m + m + 1
        assert res.complete and res.matches_expected
        assert res.witness.columns_distinct()
        assert is_totally_unimodular(res.witness, "gh").is_tu


def test_heller_m2_against_dumb_enumeration():
    cands = candidate_columns(2, "heller")
    best = 0
    for size in range(1, len(cands) + 1):
        for sub in combinations(cands, size):
            rows = [[c[i] for c in sub] for i in range(2)]
            if is_tu_bruteforce(rows):
                best = max(best, size)
    assert best == 7
    assert max_tu_columns(2).max_columns == best


def test_odd_sums_reported_not_asserted():
    res3 = max_odd_sum_tu_columns(3)
    assert res3.max_columns >= 4  # polytopal witnesses qualify
    assert res3.expected is None and res3.matches_expected is None
    res4 = max_odd_sum_tu_columns(4)
    assert res4.max_columns == 6  # equals h(4), informationally
    assert res4.witness.columns_distinct()
    sums = [sum(res4.witness.col(j)) for j in range(res4.witness.cols)]
    assert all(s > 0 and s % 2 == 1 for s in sums)


def test_search_invariant_under_candidate_ordering():
    for search, m, mode in ((max_polytopal_tu_columns, 3, "polytopal"),
                            (max_polytopal_tu_columns, 4, "polytopal"),
                            (max_tu_columns, 2, "heller"),
                            (max_odd_sum_tu_columns, 4, "odd-sums")):
        cands = candidate_columns(m, mode)[::-1]
        walk = max_tu_subset_walk(cands)
        assert walk == max_tu_subset_reference(m, cands)
        identity_block = 0 if mode == "heller" else m
        assert walk[0] + identity_block == search(m).max_columns


def test_pruning_soundness_incremental_vs_full():
    # the incremental walk against one that re-checks every minor of each
    # trial subset, and the public searches against that walk
    for search, m, mode in ((max_polytopal_tu_columns, 3, "polytopal"),
                            (max_polytopal_tu_columns, 4, "polytopal"),
                            (max_tu_columns, 2, "heller")):
        cands = candidate_columns(m, mode)
        best, witness, nodes, complete = max_tu_subset_reference(m, cands)
        assert (max_tu_subset_walk(cands)
                == (best, witness, nodes, complete))
        res = search(m)
        identity_block = 0 if mode == "heller" else m
        assert res.max_columns == best + identity_block
        assert res.nodes == nodes and res.complete == complete
        assert res.witness.columns()[identity_block:] == [
            cands[j] for j in witness]


def test_fast_mode_matches_verify_mode():
    for m in (3, 4, 5):
        fast = max_polytopal_tu_columns(m, mode="fast")
        verify = max_polytopal_tu_columns(m, mode="verify")
        assert fast.max_columns == verify.max_columns
        assert fast.nodes <= verify.nodes
    fast = max_tu_columns(3, mode="fast")
    assert fast.max_columns == 13


def test_index_perms_match_column_by_column_lookup():
    # the same permutations in the same order, so the fast searches test
    # the same subsets; heller stops at m = 6, as its m = 7 reference takes
    # 11 M lookups (about 6 s) on a path that polytopal and odd-sums m = 7
    # already take
    for mode, top in (("polytopal", 7), ("heller", 6), ("odd-sums", 7)):
        for m in range(2, top + 1):
            cands = candidate_columns(m, mode)
            assert (_index_perms(cands, m)
                    == list(coordinate_index_perms(cands, m))), (mode, m)


def test_stray_environment_variables_change_nothing(monkeypatch):
    # the search budget is node_budget alone; no environment variable
    # reaches the walk
    default = max_polytopal_tu_columns(4)
    monkeypatch.setenv("TUMAX_THREADS", "2")
    monkeypatch.setenv("TUMAX_BUDGET_NODES", "5")
    res = max_polytopal_tu_columns(4)
    assert res.complete and res.nodes == 58
    assert res.witness == default.witness
    assert res.max_columns == default.max_columns == 6


def test_heller_m4_past_the_packed_table():
    # the fast m = 4 search chooses 21 columns, far past depth m - 1 = 3,
    # where a probe starts to drop the images of the order-4 minors
    res = max_tu_columns(4, mode="fast", max_m=4)
    assert res.max_columns == 21 and res.nodes == 31
    assert res.complete and res.matches_expected
    assert res.witness.to_lists() == [
        [-1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1],
        [-1, -1, -1, -1, 0, 0, -1, -1, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 1, 1, 1],
        [-1, -1, 0, 0, -1, 0, 0, 0, -1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 1],
        [-1, 0, -1, 0, 0, 0, -1, 0, 0, -1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1]]


def test_heller_m4_verify_with_a_node_budget_is_pinned():
    # the walk of an engine that scanned every minor of the block with
    # tu_violation at each node past depth 15
    res = max_tu_columns(4, mode="verify", max_m=4, node_budget=400)
    cands = candidate_columns(4, "heller")
    assert (res.max_columns, res.nodes, res.complete) == (21, 400, False)
    assert res.witness.columns() == [cands[j] for j in (
        0, 1, 3, 4, 10, 13, 30, 31, 37, 39, 40, 41, 43, 49, 50, 67, 70, 76,
        77, 79, 80)]


def test_search_walk_never_scans_minors(monkeypatch):
    # the packed minor table is the walk's one minor engine
    def scan(*args):
        raise AssertionError("the search walk called tu_violation")

    monkeypatch.setattr(_pykernels, "tu_violation", scan)
    monkeypatch.setattr(kernels, "tu_violation", scan)
    searches = {"polytopal": max_polytopal_tu_columns,
                "heller": max_tu_columns, "odd-sums": max_odd_sum_tu_columns}
    for kind, m, mode, best, *_ in _DEFAULT_WALKS:
        assert searches[kind](m, mode=mode).max_columns == best
    assert max_tu_columns(4, mode="fast", max_m=4).max_columns == 21
    assert max_tu_columns(4, max_m=4, node_budget=400).max_columns == 21


def test_minor_table_oracle_matches_bruteforce():
    rng = random.Random(81)
    for _ in range(300):
        rows = [[rng.choice((-1, 0, 1, 1, 0, -1, 2)) for _ in range(c)]
                for c in [rng.randint(0, 6)] for _ in range(rng.randint(0, 4))]
        assert is_tu_by_minor_table(rows) == is_tu_bruteforce(rows), rows


def test_heller_m5_cli_search_ends_at_its_node_budget():
    report = run(["verify", "heller-bound", "--m", "5", "--max-m", "5",
                  "--budget-nodes", "400"])
    search = report.result["search"]
    assert report.exit_status == EXIT_BUDGET
    assert (search["nodes"], search["complete"]) == (400, False)
    assert len(search["witness"][0]) == search["max_columns"] == 31
    assert is_tu_by_minor_table(search["witness"])


def test_polytopal_m8_fast_search_has_no_symmetry_reduction(monkeypatch):
    # past m = 7 fast mode builds no table of the m! row permutations and
    # only stops at the target h(m)
    def build(*args):
        raise AssertionError("fast mode built the permutations at m = 8")

    monkeypatch.setattr("tumax.search._index_perms", build)
    report = run(["verify", "polytopal-bound", "--m", "8", "--max-m", "8",
                  "--mode", "fast"])
    search = report.result["search"]
    assert report.exit_status == EXIT_OK
    assert report.result["matches_expected"] is True
    assert ((search["max_columns"], search["nodes"], search["complete"])
            == (20, 73, True))
    assert is_prepared(IntMatrix.from_rows(search["witness"]))


def test_heller_m6_stops_where_a_block_outgrows_the_table():
    # a 6-row block at position 26 would hold more than _MAX_BLOCK_FIELDS
    # fields, 17 columns short of Heller's bound: the walk ends there,
    # incomplete, as at a node budget
    report = run(["verify", "heller-bound", "--m", "6", "--max-m", "6",
                  "--mode", "fast"])
    search = report.result["search"]
    assert report.exit_status == EXIT_BUDGET
    assert ((search["max_columns"], search["nodes"], search["complete"])
            == (26, 69, False))


# (kind, m, mode, max_columns, nodes, complete, witness as indices into
# candidate_columns(m, kind), beside the identity block but for heller),
# for every default search but the m = 6 verify one, which
# test_criterion2_stretch_m6 pins
_DEFAULT_WALKS = (
    ("polytopal", 2, "verify", 2, 0, True, ()),
    ("polytopal", 2, "fast", 2, 0, True, ()),
    ("polytopal", 3, "verify", 4, 3, True, (0,)),
    ("polytopal", 3, "fast", 4, 1, True, (0,)),
    ("polytopal", 4, "verify", 6, 58, True, (0, 1)),
    ("polytopal", 4, "fast", 6, 2, True, (0, 1)),
    ("polytopal", 5, "verify", 10, 4929, True, (0, 1, 2, 10, 11)),
    ("polytopal", 5, "fast", 10, 6, True, (0, 1, 2, 10, 11)),
    ("polytopal", 6, "fast", 12, 11, True, (0, 1, 5, 6, 9, 31)),
    ("heller", 1, "verify", 3, 7, True, (0, 1, 2)),
    ("heller", 1, "fast", 3, 3, True, (0, 1, 2)),
    ("heller", 2, "verify", 7, 223, True, (0, 1, 3, 4, 5, 7, 8)),
    ("heller", 2, "fast", 7, 7, True, (0, 1, 3, 4, 5, 7, 8)),
    ("heller", 3, "verify", 13, 103447, True,
     (0, 1, 3, 4, 10, 12, 13, 14, 16, 22, 23, 25, 26)),
    ("heller", 3, "fast", 13, 15, True,
     (0, 1, 3, 4, 10, 12, 13, 14, 16, 22, 23, 25, 26)),
    ("odd-sums", 1, "verify", 1, 0, True, ()),
    ("odd-sums", 1, "fast", 1, 0, True, ()),
    ("odd-sums", 2, "verify", 2, 0, True, ()),
    ("odd-sums", 2, "fast", 2, 0, True, ()),
    ("odd-sums", 3, "verify", 4, 4, True, (0,)),
    ("odd-sums", 3, "fast", 4, 4, True, (0,)),
    ("odd-sums", 4, "verify", 6, 96, True, (0, 1)),
    ("odd-sums", 4, "fast", 6, 32, True, (0, 1)),
    ("odd-sums", 5, "verify", 10, 10985, True, (0, 1, 2, 11, 12)),
    ("odd-sums", 5, "fast", 10, 410, True, (0, 1, 2, 11, 12)),
)


def test_default_search_walks_are_pinned():
    # the same subset tests in the same order, ending on the same witness
    searches = {"polytopal": max_polytopal_tu_columns,
                "heller": max_tu_columns, "odd-sums": max_odd_sum_tu_columns}
    for kind, m, mode, best, nodes, complete, idx in _DEFAULT_WALKS:
        res = searches[kind](m, mode=mode)
        cands = candidate_columns(m, kind)
        identity = [] if kind == "heller" else [
            tuple(int(i == j) for i in range(m)) for j in range(m)]
        assert ((res.max_columns, res.nodes, res.complete)
                == (best, nodes, complete)), (kind, m, mode)
        assert res.witness.columns() == identity + [cands[j] for j in idx], (
            kind, m, mode)


def test_node_budget_flags_incomplete():
    res = max_tu_columns(3, node_budget=50)
    assert not res.complete
    assert res.matches_expected is None
    assert res.nodes <= 50


def _extends_tu(mprime, column):
    """The search walk's extension check: push the columns of M' into the
    packed minor table one by one, then test v."""
    minors = _PackedMinors(mprime.rows)
    for c in range(mprime.cols):
        level = packed_pair(minors, c, mprime.col(c))
        assert level is not None, "M' must be TU"
        minors.push(c, level)
    return packed_pair(minors, mprime.cols, column) is not None


def test_is_extension_tu_examples():
    # is (M'|v) TU, given that M' already is?
    empty = IntMatrix(2, 0, ((), ()))
    assert _extends_tu(empty, (1, -1))
    one_col = IntMatrix.from_columns([(1, 1)])
    assert not _extends_tu(one_col, (1, -1))
    assert _extends_tu(one_col, (1, 0))


def test_is_extension_tu_shadow_agreement():
    # for a TU M', "no violation through v" is exactly "(M'|v) is TU"
    rng = random.Random(80)
    for _ in range(150):
        mprime = random_tu_matrix(rng, rng.randint(1, 4), rng.randint(0, 4))
        v = tuple(rng.randint(-1, 1) for _ in range(mprime.rows))
        extended = mprime.hstack(IntMatrix.from_columns([v]))
        assert _extends_tu(mprime, v) == is_totally_unimodular(extended).is_tu
