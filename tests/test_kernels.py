"""Kernel tests: every kernel must match the brute-force oracles (values,
witnesses, search results, node counts)."""

import random
from itertools import combinations, permutations

from tumax import _pykernels
from tumax import kernels
from tumax.polytopes import _cube_symmetry_index_perms
from tumax.search import candidate_columns

from helpers import max_tu_subset_walk
from oracles import (canonical_masks_bruteforce, det_cofactor,
                     first_violating_minor, max_tu_subset_reference,
                     minors_in_scan_order)


def test_selected_backend_reports_name():
    assert kernels.BACKEND == "pure-python"


def test_tu_violation_witness_matches_oracle():
    # the first violating minor in the documented scan order, not just any
    rng = random.Random(48)
    for _ in range(300):
        r = rng.randint(0, 5)
        c = rng.randint(0, 6)
        rows = [[rng.choice((-1, 0, 1, 1, 0, -1, 2, -2)) if rng.random() < 0.1
                 else rng.randint(-1, 1) for _ in range(c)] for _ in range(r)]
        flat = [x for row in rows for x in row]
        assert kernels.tu_violation(flat, r, c) == first_violating_minor(rows)


def test_extension_violation_matches_oracle():
    # the first violating minor of (M|v) in scan order among those that
    # use the appended column; M itself need not be TU
    rng = random.Random(43)
    for _ in range(400):
        r = rng.randint(1, 5)
        c = rng.randint(0, 5)
        flat = [rng.randint(-1, 1) for _ in range(r * c)]
        new = [rng.randint(-1, 1) for _ in range(r)]
        rows = [flat[i * c:(i + 1) * c] + [new[i]] for i in range(r)]
        want = next((minor for minor in minors_in_scan_order(rows)
                     if c in minor[1] and not -1 <= minor[2] <= 1), None)
        assert kernels.extension_violation(flat, r, c, new) == want


def _sum_one_candidates(m):
    from itertools import product

    out = []
    for v in product((-1, 0, 1), repeat=m):
        if sum(v) == 1 and sum(1 for x in v if x) > 1:
            out.append(v)
    return out


def _coordinate_perms(cands, m):
    """Candidate-index permutations induced by permuting coordinates."""
    idx = {tuple(c): i for i, c in enumerate(cands)}
    return [[idx[tuple(c[p[i]] for i in range(m))] for c in cands]
            for p in permutations(range(m)) if p != tuple(range(m))]


def test_max_tu_subset_incremental_matches_full_check():
    # the incremental check sees only the minors through the new column;
    # it must accept exactly the subsets that re-checking every minor does
    rng = random.Random(47)
    for _ in range(150):
        m = rng.randint(1, 5)
        n = rng.randint(0, 12)
        cands = [[rng.choice((-1, -1, 0, 0, 1, 1, 2)) for _ in range(m)]
                 for _ in range(n)]
        assert (max_tu_subset_walk(m, cands)
                == max_tu_subset_reference(m, cands)), cands


def _search_cases():
    """(m, candidates, options) of the search families, m <= 4."""
    cases = []
    for mode, ms in (("polytopal", (2, 3, 4)), ("heller", (1, 2, 3)),
                     ("odd-sums", (1, 2, 3, 4))):
        for m in ms:
            cands = candidate_columns(m, mode)
            perms = _coordinate_perms(cands, m)
            n = len(cands)
            cases += [(m, cands, {"node_budget": 400} if n > 20 else {}),
                      (m, cands[::-1], {"node_budget": 250}),
                      (m, cands, {"perms": perms, "node_budget": 400}),
                      (m, cands, {"perms": perms, "stop_at": m + 2}),
                      (m, cands, {"stop_at": 3}),
                      (m, cands, {"node_budget": 7})]
    return cases


def _random_cases(rng, count):
    cases = []
    for _ in range(count):
        m = rng.randint(1, 4)
        n = rng.randint(0, 11)
        cands = [[rng.choice((-1, -1, 0, 0, 1, 1, 2)) for _ in range(m)]
                 for _ in range(n)]
        opts = {}
        if n and rng.random() < 0.3:
            opts["perms"] = [rng.sample(range(n), n)
                             for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:
            opts["stop_at"] = rng.randint(0, 5)
        if rng.random() < 0.3:
            opts["node_budget"] = rng.randint(0, 60)
        cases.append((m, cands, opts))
    return cases


def test_max_tu_subset_matches_reference_dfs():
    # best size, witness, node count and completeness of the whole walk
    for m, cands, opts in (_search_cases()
                           + _random_cases(random.Random(49), 150)):
        assert (max_tu_subset_walk(m, cands, **opts)
                == max_tu_subset_reference(m, cands, **opts)), (m, cands, opts)


def test_pure_max_tu_subset_past_packed_table(monkeypatch):
    # nodes past the packed minor table enumerate their minors instead
    cands = _sum_one_candidates(4)
    monkeypatch.setattr(_pykernels, "_PACKED_MAX_LOG_FIELDS", 6)
    assert (max_tu_subset_walk(4, cands)
            == max_tu_subset_reference(4, cands))


def test_unimodular_violation_matches_oracle():
    # the first (d+1)-subset, in combinations order, whose difference
    # vectors have a determinant outside {-1, 0, 1}
    rng = random.Random(44)
    for _ in range(200):
        d = rng.randint(1, 3)
        npts = rng.randint(d + 1, 7)
        flat = [rng.randint(0, 1) for _ in range(npts * d)]
        pts = [flat[i * d:(i + 1) * d] for i in range(npts)]
        want = None
        for subset in combinations(range(npts), d + 1):
            p0 = pts[subset[0]]
            det = det_cofactor([[x - y for x, y in zip(pts[i], p0)]
                                for i in subset[1:]])
            if not -1 <= det <= 1:
                want = (subset, det)
                break
        assert kernels.unimodular_violation(flat, npts, d) == want


def _random_perms(rng, npoints, count):
    perms = []
    for _ in range(count):
        p = list(range(npoints))
        rng.shuffle(p)
        perms.append(p)
    return perms


def test_canonical_masks_partial_byte_matches_oracle():
    rng = random.Random(46)
    for npoints in (0, 1, 2, 3, 5, 12, 13):
        perms = _random_perms(rng, npoints, 4)
        for lo, hi in ((0, npoints), (1, (npoints + 1) // 2)):
            assert (kernels.canonical_masks(npoints, perms, lo, hi)
                    == canonical_masks_bruteforce(npoints, perms, lo, hi))


def test_canonical_masks_cube_symmetries():
    # subsets of the d-cube's vertices up to cube symmetry: 3, 6, 22, 402
    for d, orbits in ((1, 3), (2, 6), (3, 22), (4, 402)):
        _, perms = _cube_symmetry_index_perms(d)
        got = kernels.canonical_masks(1 << d, perms, 0, 1 << d)
        assert got == canonical_masks_bruteforce(1 << d, perms, 0, 1 << d)
        assert len(got) == orbits
