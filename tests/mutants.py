"""Mutants of the library that the tests must kill, each with the tests
expected to kill it.

An entry names a file of ``src/tumax``, an exact source snippet of it,
the snippet's replacement, and pytest ids. ``tests/test_mutants.py``
checks only that each snippet occurs exactly once in ``src/``, so a
refactor that moves the code updates this list on purpose. Run this file
by hand to apply each mutant in turn to a copy of ``src`` and ``tests``
under a temporary directory, and run its tests there:

    python tests/mutants.py [NAME ...]

It prints each mutant as killed or SURVIVED, and exits 1 when one
survives. A run that outlasts the entry's ``timeout`` (600 s unless the
entry sets one) counts as killed: a mutant that loops forever. A
survivor is a weakness of the tests: fix the tests, never the entry.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tumax"

CERTIFY = "tests/test_certify.py::"
CLI = "tests/test_cli.py::"
GRAPHS = "tests/test_graphs.py::"
KERNELS = "tests/test_kernels.py::"
MATRIX = "tests/test_matrix.py::"
POLYTOPES = "tests/test_polytopes.py::"
SUMS = "tests/test_sums.py::"
CORPUS = CLI + "test_cli_corpus_replays_byte_for_byte"
ERROR_BRANCHES = "tests/test_error_branches.py::test_error_type_and_text"
PUBLIC_ARGUMENTS = ("tests/test_public_arguments.py::test_a_wrong_argument_"
                    "raises_a_library_error_or_answers_alike")
CLASSIFY_FROM_TU = (POLYTOPES
                    + "test_classification_reproduced_from_tu_matrices")
# the classify golden file and CLASSIFY_FROM_TU kill no orbit-walk mutant:
# extra or missing cube orbits leave the 13 classes of d = 4 as they are,
# and only the orbit counts pin the walk there
ORBITS_D4 = POLYTOPES + "test_classify_d4_examines_313_cube_orbits"
FIRST_ENTRY = (CERTIFY + "test_gh_reports_the_first_entry_outside_the_signs_"
               "at_any_height")

# the head of ghouila_houri_check: the 1x1 scan of m as given, then the
# orientation, then the one test of the row budget
GH_SCAN = ("    for i, row in enumerate(m.entries):\n"
           "        for j, e in enumerate(row):\n"
           "            if e not in (-1, 0, 1):\n"
           "                return TuVerdict(False, METHOD_GH, "
           "((i,), (j,), e))\n")
GH_ORIENT = ("    given = f\"matrix size {m.rows}x{m.cols} has\"\n"
             "    if m.cols < m.rows:\n"
             "        m = m.transpose()\n")
# the polytopal and the unimodular precondition of normalize_standard_form
NORMALIZE_POLYTOPAL = (
    "    if not m.rows or linsolve.hnf_solver(hnf, u, frame)((1,) * m.cols) "
    "is None:\n"
    "        raise PreconditionError(\"matrix is not polytopal\")\n")
NORMALIZE_UNIMODULAR = (
    "    if not _hnf_is_unimodular(hnf, frame, "
    "f\"matrix size {m.rows}x{m.cols}\"):\n"
    "        raise PreconditionError(\"matrix is not unimodular\")\n")

MUTANTS = [
    {"name": "gh-suffix-bound-too-tight",
     "file": "certify.py",
     "snippet": "base = (top_bit - 2) * ones",
     "replacement": "base = (top_bit - 1) * ones",
     "tests": [CERTIFY + "test_sporadic_5x10_is_tu_by_both_methods",
               CERTIFY + "test_gh_matches_the_minor_table_oracle"]},
    {"name": "gh-suffix-bound-too-loose",
     "file": "certify.py",
     "snippet": "base = (top_bit - 2) * ones",
     "replacement": "base = (top_bit - 3) * ones",
     "tests": [CERTIFY + "test_gh_identity_and_small_negative",
               CERTIFY + "test_gh_matches_the_minor_table_oracle"]},
    {"name": "gh-row-budget-off-by-one",
     "file": "certify.py",
     "snippet": "    if m.rows > GH_ROW_BUDGET:\n        raise _past_gh_budget(",
     "replacement": ("    if m.rows >= GH_ROW_BUDGET:\n"
                     "        raise _past_gh_budget("),
     "tests": [CERTIFY + "test_gh_decides_20_rows_and_raises_past_them"]},
    {"name": "gh-orientation-inverted",
     "file": "certify.py",
     "snippet": "    if m.cols < m.rows:\n        m = m.transpose()",
     "replacement": "    if m.cols > m.rows:\n        m = m.transpose()",
     "tests": [CERTIFY + "test_gh_runs_on_the_smaller_side",
               CERTIFY + "test_is_unimodular_decides_n_on_its_smaller_side",
               CLI + "test_check_prepared_decides_a_wide_input_on_its_rows",
               CLI + "test_check_prepared_past_both_tu_budgets"]},
    {"name": "gh-budget-before-the-1x1-scan",
     "file": "certify.py",
     "snippet": GH_SCAN,
     "replacement": ("    if min(m.rows, m.cols) > GH_ROW_BUDGET:\n"
                     "        raise _past_gh_budget(\"matrix\", "
                     "min(m.rows, m.cols))\n" + GH_SCAN),
     "tests": [FIRST_ENTRY,
               CLI + "test_check_unimodular_over_the_row_budget"]},
    {"name": "gh-1x1-scan-after-the-transpose",
     "file": "certify.py",
     "snippet": GH_SCAN + GH_ORIENT,
     "replacement": GH_ORIENT + GH_SCAN,
     "tests": [FIRST_ENTRY]},
    {"name": "hnf-pivot-test-admits-2",
     "file": "certify.py",
     "snippet": "if any(hnf.entries[k][p] != 1 for k, p in enumerate(pivots)):",
     "replacement": "if any(hnf.entries[k][p] > 2 for k, p in enumerate(pivots)):",
     "tests": [CERTIFY + "test_is_unimodular_examples",
               CERTIFY + "test_is_unimodular_matches_maximal_minor_oracle"]},
    {"name": "tree-path-b-side-sign-flipped",
     "file": "graphs.py",
     "snippet": "yield parc[b], -psign[b]",
     "replacement": "yield parc[b], psign[b]",
     "tests": [GRAPHS + "test_network_matrix_tree_arc_columns",
               GRAPHS + "test_network_matrix_against_bfs_oracle"]},
    {"name": "tree-test-without-the-reached-count",
     "file": "graphs.py",
     "snippet": "    if reached != n:\n        return None\n",
     "replacement": "",
     "tests": [GRAPHS + "test_is_tree_matches_the_union_find_oracle", CORPUS]},
    {"name": "tree-test-without-the-arc-count",
     "file": "graphs.py",
     "snippet": "    if len(graph.arcs) != n - 1:\n        return None\n",
     "replacement": "",
     "tests": [GRAPHS + "test_is_tree_matches_the_union_find_oracle", CORPUS]},
    {"name": "bipartite-check-misses-odd-cycles",
     "file": "graphs.py",
     "snippet": ("                elif color[w] == color[v]:\n"
                 "                    return False\n"),
     "replacement": "",
     "tests": [GRAPHS + "test_underlying_bipartite_examples",
               GRAPHS + "test_underlying_bipartite_matches_the_colouring_oracle"]},
    {"name": "tu-violation-scans-large-minors-first",
     "file": "_pykernels.py",
     "snippet": "    for k in range(2, min(nrows, ncols) + 1):",
     "replacement": "    for k in range(min(nrows, ncols), 1, -1):",
     "tests": [KERNELS + "test_tu_violation_witness_matches_oracle"]},
    {"name": "max-tu-subset-keeps-a-stale-memo",
     "file": "_pykernels.py",
     "snippet": "        known[k + 1:] = [{}]",
     "replacement": "        known[k + 1:] = known[k + 1:] or [{}]",
     "tests": [KERNELS + "test_max_tu_subset_matches_reference_dfs"]},
    {"name": "bland-tie-break-takes-the-largest-basis-index",
     "file": "lp.py",
     "snippet": "and basis[i] < basis[leaving]):",
     "replacement": "and basis[i] > basis[leaving]):",
     "tests": ["tests/test_lp.py::"
               "test_feasible_nonneg_ends_on_a_degenerate_system"],
     "timeout": 60},
    {"name": "lattice-isomorphic-without-the-profile-filter",
     "file": "polytopes.py",
     "snippet": ("    if sorted(p_profiles) != sorted(q_profiles):\n"
                 "        return False\n"),
     "replacement": "",
     "tests": [POLYTOPES + "test_classify_isomorphism_work_is_pinned"]},
    {"name": "lattice-isomorphic-profiles-compared-in-point-order",
     "file": "polytopes.py",
     "snippet": "    if sorted(p_profiles) != sorted(q_profiles):",
     "replacement": "    if p_profiles != q_profiles:",
     "tests": [POLYTOPES + "test_lattice_isomorphic_matches_oracle_with_"
               "shuffled_points",
               POLYTOPES + "test_classify_isomorphism_work_is_pinned"]},
    {"name": "embedding-without-the-full-rank-skip",
     "file": "polytopes.py",
     "snippet": "    if r == ps.dim:",
     "replacement": "    if r < 0:",
     "tests": [POLYTOPES + "test_full_dimensional_sets_come_back_translated",
               CORPUS]},
    {"name": "embedding-projects-the-differences",
     "file": "polytopes.py",
     "snippet": "((0,) * r,) + tuple(zip(*hnf.entries[:r]))",
     "replacement": "((0,) * r,) + tuple(p[:r] for p in diffs)",
     "tests": [POLYTOPES + "test_affine_lattice_coordinates_keep_every_"
               "simplex_index",
               POLYTOPES + "test_wide_collinear_set_is_embedded_exactly"]},
    {"name": "embedding-scaled-by-2",
     "file": "polytopes.py",
     "snippet": "((0,) * r,) + tuple(zip(*hnf.entries[:r]))",
     "replacement": ("((0,) * r,) + tuple(tuple(2 * x for x in c) "
                     "for c in zip(*hnf.entries[:r]))"),
     "tests": [POLYTOPES + "test_affine_lattice_coordinates_keep_every_"
               "simplex_index",
               POLYTOPES + "test_affine_lattice_coordinates_matches_oracle_"
               "after_embedding"]},
    {"name": "embedding-through-the-input-check",
     "file": "polytopes.py",
     "snippet": ("IntMatrix(ps.dim, len(diffs), tuple(zip(*diffs)) or "
                 "((),) * ps.dim)"),
     "replacement": "IntMatrix.from_columns(diffs, rows=ps.dim)",
     "tests": [POLYTOPES + "test_wide_segment_is_embedded_exactly",
               CLI + "test_a_wide_segment_is_answered_exactly"]},
    {"name": "adjugate-without-row-swaps",
     "file": "polytopes.py",
     "snippet": "        rows[k], rows[piv] = rows[piv], rows[k]\n",
     "replacement": "",
     "tests": [POLYTOPES + "test_adjugate_is_a_multiple_of_the_fraction_"
               "inverse",
               POLYTOPES + "test_lattice_isomorphic_random_transforms"]},
    {"name": "classify-size-cap-one-short",
     "file": "polytopes.py",
     "snippet": "perms, d + 1, h(d + 1))",
     "replacement": "perms, d + 1, h(d + 1) - 1)",
     "tests": [CLASSIFY_FROM_TU, CLI + "test_classify_json_matches_golden"]},
    {"name": "classify-determinant-filter-one-sided",
     "file": "polytopes.py",
     "snippet": "if det > 1 or det < -1:",
     "replacement": "if det > 1:",
     "tests": [CLASSIFY_FROM_TU, CLI + "test_classify_json_matches_golden"]},
    {"name": "orbit-walk-skips-a-permutation",
     "file": "_pykernels.py",
     "snippet": "pairs = [(table(p[:8]), table(p[8:])) for p in perms]",
     "replacement": "pairs = [(table(p[:8]), table(p[8:])) for p in perms[1:]]",
     "tests": [KERNELS + "test_canonical_masks_cube_symmetries", ORBITS_D4]},
    {"name": "orbit-walk-drops-the-high-byte",
     "file": "_pykernels.py",
     "snippet": "seen[lo[low] | hi[high]] = 1",
     "replacement": "seen[lo[low]] = 1",
     "tests": [KERNELS + "test_canonical_masks_partial_byte_matches_oracle",
               KERNELS + "test_canonical_masks_cube_symmetries", ORBITS_D4]},
    {"name": "orbit-walk-without-the-size-floor",
     "file": "_pykernels.py",
     "snippet": "if pc < min_size or pc > max_size:",
     "replacement": "if pc > max_size:",
     "tests": [KERNELS + "test_canonical_masks_partial_byte_matches_oracle",
               ORBITS_D4]},
    {"name": "normalize-preconditions-swapped",
     "file": "polytopes.py",
     "snippet": NORMALIZE_POLYTOPAL + NORMALIZE_UNIMODULAR,
     "replacement": NORMALIZE_UNIMODULAR + NORMALIZE_POLYTOPAL,
     "tests": [POLYTOPES + "test_normalize_raises_the_first_failing_"
               "precondition"]},
    {"name": "columns-distinct-misses-a-duplicate",
     "file": "matrix.py",
     "snippet": "return len(set(self.columns())) == self.cols",
     "replacement": "return len(set(self.columns())) >= self.cols - 1",
     "tests": [MATRIX + "test_columns_distinct_basic", CORPUS]},
    {"name": "index-set-takes-bools",
     "file": "matrix.py",
     "snippet": "        if type(i) is not int:\n",
     "replacement": "        if not isinstance(i, int):\n",
     "tests": [MATRIX + "test_index_sets_take_only_ints"]},
    {"name": "lattice-solve-without-the-int-check",
     "file": "linsolve.py",
     "snippet": "        w = int_vector(w, \"w\")\n",
     "replacement": "",
     "tests": ["tests/test_linsolve.py::"
               "test_solve_left_integer_takes_only_int_targets",
               "tests/test_linsolve.py::"
               "test_hnf_solver_takes_only_int_targets"]},
    {"name": "delta-sum-u-length-against-m1",
     "file": "sums.py",
     "snippet": '("u", "n1")',
     "replacement": '("u", "m1")',
     "tests": [SUMS + "test_compose_error_texts_and_precedence",
               SUMS + "test_delta_sum_block_structure_and_x_cases"]},
    {"name": "second-factor-tu-check-skipped",
     "file": "sums.py",
     "snippet": "zip((first_factor(spec), second_factor(spec)),",
     "replacement": "zip((first_factor(spec),),",
     "tests": [SUMS + "test_every_kind_refuses_a_non_tu_factor",
               SUMS + "test_compose_error_texts_and_precedence"]},
    {"name": "three-sum-transport-minus-row-sign-flipped",
     "file": "sums.py",
     "snippet": "((1, vl), (-1, _neg(vl)))",
     "replacement": "((1, vl), (1, _neg(vl)))",
     "tests": [SUMS + "test_transport_three_sum_reverifies"]},
    {"name": "leaf-route-ignores-left-over-arguments",
     "file": "cli.py",
     "snippet": "        if not rest:\n",
     "replacement": "        if True:\n",
     "tests": [CLI + "test_leaf_parsers_match_the_tree"]},
    {"name": "h-takes-non-ints",
     "file": "families.py",
     "snippet": "    x = int_arg(x, 1, \"h is defined for integers >= 1\")\n",
     "replacement": "",
     "tests": ["tests/test_families.py::test_h_takes_only_ints"]},
    {"name": "int-arg-takes-bools",
     "file": "matrix.py",
     "snippet": "    if type(value) is int and low <= value",
     "replacement": "    if isinstance(value, int) and low <= value",
     "tests": [MATRIX + "test_int_arg_takes_only_ints_in_bounds",
               PUBLIC_ARGUMENTS]},
    {"name": "sporadic-variant-without-its-upper-bound",
     "file": "families.py",
     "snippet": "\"variant must be 1 or 2\", high=2)",
     "replacement": "\"variant must be 1 or 2\")",
     "tests": [ERROR_BRANCHES]},
    {"name": "matrix-arg-takes-any-value",
     "file": "matrix.py",
     "snippet": "    if not isinstance(m, IntMatrix):\n",
     "replacement": "    if m is None:\n",
     "tests": [MATRIX + "test_matrix_arg_takes_only_int_matrices",
               ERROR_BRANCHES]},
    {"name": "gh-walk-takes-a-sign-untested",
     "file": "certify.py",
     "snippet": "            nxt = sums + plus\n            if nxt & top:\n",
     "replacement": "            nxt = sums + plus\n            if False:\n",
     "tests": [CERTIFY + "test_gh_walk_matches_the_minor_table_oracle"]},
    {"name": "no-broken-pipe-catch",
     "file": "cli.py",
     "snippet": "    except BrokenPipeError:",
     "replacement": "    except ConnectionResetError:",
     "tests": [CLI + "test_reader_closing_early_leaves_the_exit_status"]},
]


def _run(mutant, workdir):
    """'killed', 'SURVIVED' or 'error' for one mutant, applied to a fresh
    copy of src/ and tests/ in ``workdir``."""
    for part in ("src", "tests"):
        shutil.rmtree(workdir / part, ignore_errors=True)
        shutil.copytree(ROOT / part, workdir / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    target = workdir / "src" / "tumax" / mutant["file"]
    text = target.read_text(encoding="utf-8")
    if text.count(mutant["snippet"]) != 1:
        return "error"
    target.write_text(text.replace(mutant["snippet"], mutant["replacement"]),
                      encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        status = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *mutant["tests"]],
            cwd=workdir, env=env, capture_output=True,
            timeout=mutant.get("timeout", 600)).returncode
    except subprocess.TimeoutExpired:
        return "killed"  # by the timeout
    return {0: "SURVIVED", 1: "killed"}.get(status, "error")


def main(names):
    chosen = [m for m in MUTANTS if not names or m["name"] in names]
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for mutant in chosen:
            result = _run(mutant, Path(tmp))
            print(f"{result:9} {mutant['name']}", flush=True)
            results.append(result)
    return 0 if all(r == "killed" for r in results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
