"""Error branches of the public API that no other test reaches, each with
the exact type and text it raises."""

import pytest

from tumax import certify, cli, linsolve, polytopes, search
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
]


@pytest.mark.parametrize("case, call, exc, message", ERRORS,
                         ids=[c[0] for c in ERRORS])
def test_error_type_and_text(case, call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert (type(info.value), str(info.value)) == (exc, message)
