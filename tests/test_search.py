"""search surface: candidate spaces, DFS searches, pruning soundness."""

import random
from itertools import combinations

import pytest

from tumax._pykernels import _PackedMinors
from tumax.certify import is_prepared, is_totally_unimodular
from tumax.errors import UsageError
from tumax.families import bipartite_extremal, h
from tumax.matrix import IntMatrix
from tumax.search import (
    candidate_columns,
    max_odd_sum_tu_columns,
    max_polytopal_tu_columns,
    max_tu_columns,
)

from helpers import max_tu_subset_walk, random_tu_matrix
from oracles import is_tu_bruteforce, max_tu_subset_reference


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
        walk = max_tu_subset_walk(m, cands)
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
        assert (max_tu_subset_walk(m, cands)
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
    # the fast m = 4 search chooses 17 columns, more than the packed table
    # holds for 4 rows, so its deepest nodes take the tu_violation path
    res = max_tu_columns(4, mode="fast", max_m=4)
    assert res.max_columns == 21 and res.nodes == 31
    assert res.complete and res.matches_expected
    assert res.witness.to_lists() == [
        [-1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1],
        [-1, -1, -1, -1, 0, 0, -1, -1, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 1, 1, 1],
        [-1, -1, 0, 0, -1, 0, 0, 0, -1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 1],
        [-1, 0, -1, 0, 0, 0, -1, 0, 0, -1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1]]


def test_node_budget_flags_incomplete():
    res = max_tu_columns(3, node_budget=50)
    assert not res.complete
    assert res.matches_expected is None
    assert res.nodes <= 50


def _extends_tu(mprime, column):
    """The search walk's extension check: push the columns of M' into the
    packed minor table one by one, then probe v."""
    minors = _PackedMinors(mprime.rows)
    for c in range(mprime.cols):
        level = minors.probe(c, minors.terms(mprime.col(c)))
        assert level is not None, "M' must be TU"
        minors.push(c, level)
    return minors.probe(mprime.cols, minors.terms(column)) is not None


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
