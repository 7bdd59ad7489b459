"""Error branches of the public API that no other test reaches, each with
the exact type and text it raises."""

import pytest

from tumax import certify, cli, families, kernels, linsolve, polytopes, search
from tumax.errors import UsageError
from tumax.matrix import IntMatrix


def _solve_identity(w):
    return linsolve.hnf_solver(*linsolve.row_hnf(IntMatrix.identity(2)))(w)


ERRORS = [
    ("points-of-mixed-dimension",
     lambda: polytopes.PointSet.from_points([(0, 0), (1,)]),
     UsageError, "points have inconsistent dimensions"),
    ("edge-to-an-unknown-vertex",
     lambda: polytopes.edge_polytope(3, [0], [(0, 5)]),
     UsageError, "edge (0,5) references unknown vertex"),
    ("classify-d0", lambda: polytopes.classify_unimodular(0),
     UsageError, "classification needs d >= 1"),
    ("classify-d6", lambda: polytopes.classify_unimodular(6),
     UsageError, "classification beyond d = 5 is not supported"),
    ("cli-classify-d0", lambda: cli.run(["classify", "--d", "0"]),
     UsageError, "classification needs d >= 1"),
    ("cli-classify-d6", lambda: cli.run(["classify", "--d", "6"]),
     UsageError, "classification beyond d = 5 is not supported"),
    ("search-mode", lambda: search.max_tu_columns(2, mode="slow"),
     UsageError, "mode must be 'verify' or 'fast'"),
    ("tu-method", lambda: certify.is_totally_unimodular(
        IntMatrix.identity(1), method="lp"),
     UsageError, "unknown TU method 'lp'"),
    ("hnf-solver-target-length", lambda: _solve_identity((1, 0, 0)),
     UsageError, "target length must equal the column count"),
    ("hstack-row-counts",
     lambda: IntMatrix.identity(2).hstack(IntMatrix.identity(1)),
     UsageError, "hstack needs equal row counts"),
    ("vstack-column-counts",
     lambda: IntMatrix.identity(2).vstack(IntMatrix.identity(1)),
     UsageError, "vstack needs equal column counts"),
    # a bool, a float or a value out of range, where an int is documented:
    # each once answered, or raised a bare TypeError or IndexError
    ("search-m-true", lambda: search.max_tu_columns(True),
     UsageError, "m must be in [1, 3]"),
    ("search-m-float", lambda: search.max_tu_columns(2.0),
     UsageError, "m must be in [1, 3]"),
    ("search-budget-float",
     lambda: search.max_tu_columns(2, node_budget=2.5),
     UsageError, "node budget must be >= 0"),
    ("search-max-m-float",
     lambda: search.max_polytopal_tu_columns(2, max_m=2.5),
     UsageError, "max_m must be an integer >= 2, got 2.5"),
    ("candidates-m-float", lambda: search.candidate_columns(2.5, "heller"),
     UsageError, "m must be >= 1"),
    ("sporadic-variant-true", lambda: families.sporadic_5x5(True),
     UsageError, "variant must be 1 or 2"),
    ("sporadic-variant-0", lambda: families.sporadic_5x5(0),
     UsageError, "variant must be 1 or 2"),
    ("sporadic-variant-3", lambda: families.sporadic_5x5(3),
     UsageError, "variant must be 1 or 2"),
    ("heller-float", lambda: families.heller_family(2.5),
     UsageError, "the family needs m >= 2"),
    ("bipartite-float", lambda: families.bipartite_extremal(3.0),
     UsageError, "m must be >= 1"),
    ("extralemma-float", lambda: families.verify_extralemma(10.5),
     UsageError, "maximum must be at least 10 to cover the exceptions"),
    ("simplex-product-true", lambda: polytopes.simplex_product(True, 2),
     UsageError, "simplex dimensions must be nonnegative"),
    ("simplex-product-float", lambda: polytopes.simplex_product(1.0, 2),
     UsageError, "simplex dimensions must be nonnegative"),
    ("classify-float", lambda: polytopes.classify_unimodular(2.0),
     UsageError, "classification needs d >= 1"),
    ("identity-float", lambda: IntMatrix.identity(2.0),
     UsageError, "size must be a nonnegative integer, got 2.0"),
    ("zeros-negative", lambda: IntMatrix.zeros(2, -1),
     UsageError, "size must be a nonnegative integer, got -1"),
    ("max-tu-subset-stop-at-true",
     lambda: kernels.max_tu_subset([(1,)], stop_at=True),
     UsageError, "stop_at must be an integer >= -1, got True"),
    ("canonical-masks-size-float",
     lambda: kernels.canonical_masks(2, [[1, 0]], 0.5, 2),
     UsageError, "min_size must be an integer >= 0, got 0.5"),
    ("cli-samples-negative",
     lambda: cli.run(["verify", "transpose-bound", "--samples", "-1"]),
     UsageError, "--samples must be >= 0"),
    # a list of rows where an IntMatrix is documented: AttributeError before
    ("tu-of-a-list", lambda: certify.is_totally_unimodular([[1, 0], [0, 1]]),
     UsageError, "m must be an IntMatrix, got list"),
    ("gh-of-a-list", lambda: certify.ghouila_houri_check([[1, 0], [0, 1]]),
     UsageError, "m must be an IntMatrix, got list"),
    ("normalize-a-list",
     lambda: polytopes.normalize_standard_form([[1, 0], [0, 1]]),
     UsageError, "m must be an IntMatrix, got list"),
]


@pytest.mark.parametrize("case, call, exc, message", ERRORS,
                         ids=[c[0] for c in ERRORS])
def test_error_type_and_text(case, call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert (type(info.value), str(info.value)) == (exc, message)
