"""Kernel tests: the compiled kernels must reproduce the pure Python
kernels exactly (values, witnesses, search results, node counts), and
every backend must match the brute-force oracles."""

import random
from itertools import permutations

import pytest

from tumax import _pykernels as pure
from tumax import kernels
from tumax.polytopes import _cube_symmetry_index_perms
from tumax.search import candidate_columns

from oracles import (canonical_masks_bruteforce, first_violating_minor,
                     max_tu_subset_reference, permute_mask)

try:
    from tumax import _ckernels as compiled
except ImportError:
    compiled = None

needs_compiled = pytest.mark.skipif(compiled is None,
                                    reason="compiled kernels not built")

BACKENDS = [pure] if compiled is None else [pure, compiled]


def test_selected_backend_reports_name():
    assert kernels.BACKEND in ("compiled", "pure-python")


@needs_compiled
def test_det_agreement():
    rng = random.Random(40)
    for _ in range(500):
        n = rng.randint(0, 6)
        flat = [rng.randint(-4, 4) for _ in range(n * n)]
        assert compiled.det_entries(flat, n) == pure.det_entries(flat, n)


@needs_compiled
def test_det_large_values_fall_back_consistently():
    big = 1 << 31  # fails the Hadamard precheck yet stays below 2^63
    flat = [big, 1, 1, big]
    assert compiled.det_entries(flat, 2) == pure.det_entries(flat, 2) == big * big - 1
    from tumax.errors import ArithmeticOverflow

    over = [1 << 40, 0, 0, 1 << 40]
    with pytest.raises(ArithmeticOverflow):
        compiled.det_entries(over, 2)


@needs_compiled
def test_rank_agreement():
    rng = random.Random(41)
    for _ in range(400):
        r = rng.randint(0, 5)
        c = rng.randint(0, 6)
        flat = [rng.randint(-3, 3) for _ in range(r * c)]
        assert compiled.rank_entries(flat, r, c) == pure.rank_entries(flat, r, c)


@needs_compiled
def test_tu_violation_agreement_including_witness():
    rng = random.Random(42)
    for _ in range(400):
        r = rng.randint(1, 5)
        c = rng.randint(1, 6)
        flat = [rng.choice((-1, 0, 1, 1, 0, -1, 2)) for _ in range(r * c)]
        assert compiled.tu_violation(flat, r, c) == pure.tu_violation(flat, r, c)


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.BACKEND_NAME)
def test_tu_violation_witness_matches_oracle(backend):
    # the first violating minor in the documented scan order, not just any
    rng = random.Random(48)
    for _ in range(300):
        r = rng.randint(0, 5)
        c = rng.randint(0, 6)
        rows = [[rng.choice((-1, 0, 1, 1, 0, -1, 2, -2)) if rng.random() < 0.1
                 else rng.randint(-1, 1) for _ in range(c)] for _ in range(r)]
        flat = [x for row in rows for x in row]
        assert backend.tu_violation(flat, r, c) == first_violating_minor(rows)


@needs_compiled
def test_extension_violation_agreement():
    rng = random.Random(43)
    for _ in range(400):
        r = rng.randint(1, 5)
        c = rng.randint(0, 5)
        flat = [rng.randint(-1, 1) for _ in range(r * c)]
        new = [rng.randint(-1, 1) for _ in range(r)]
        assert (compiled.extension_violation(flat, r, c, new)
                == pure.extension_violation(flat, r, c, new))


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


@needs_compiled
def test_max_tu_subset_agreement():
    for m in (3, 4):
        cands = _sum_one_candidates(m)
        flat = [x for c in cands for x in c]
        n = len(cands)
        for inc in (True, False):
            got_c = compiled.max_tu_subset(m, flat, n, use_incremental=inc)
            got_p = pure.max_tu_subset(m, flat, n, use_incremental=inc)
            assert got_c == got_p


@needs_compiled
def test_max_tu_subset_agreement_with_perms_and_budget():
    m = 3
    cands = _sum_one_candidates(m)
    n = len(cands)
    flat = [x for c in cands for x in c]
    perms = _coordinate_perms(cands, m)
    full_c = compiled.max_tu_subset(m, flat, n, perms=perms)
    full_p = pure.max_tu_subset(m, flat, n, perms=perms)
    assert full_c == full_p
    lim_c = compiled.max_tu_subset(m, flat, n, node_budget=2)
    lim_p = pure.max_tu_subset(m, flat, n, node_budget=2)
    assert lim_c == lim_p
    assert lim_c[3] is False or lim_c[3] == 0  # incomplete flag


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.BACKEND_NAME)
def test_max_tu_subset_incremental_matches_full_check(backend):
    # the incremental check sees only the minors through the new column;
    # it must accept exactly the subsets that re-checking every minor does
    rng = random.Random(47)
    for _ in range(150):
        m = rng.randint(1, 5)
        n = rng.randint(0, 12)
        flat = [rng.choice((-1, -1, 0, 0, 1, 1, 2)) for _ in range(m * n)]
        assert (backend.max_tu_subset(m, flat, n, use_incremental=True)
                == backend.max_tu_subset(m, flat, n, use_incremental=False))


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
            cases += [(m, cands, {"fixed_first": first, "node_budget": 300})
                      for first in sorted({0, n // 3, n - 1}) if n]
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
        if n and rng.random() < 0.3:
            opts["fixed_first"] = rng.randrange(n)
        cases.append((m, cands, opts))
    return cases


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.BACKEND_NAME)
def test_max_tu_subset_matches_reference_dfs(backend):
    # best size, witness, node count and completeness of the whole walk
    for m, cands, opts in (_search_cases()
                           + _random_cases(random.Random(49), 150)):
        flat = [x for c in cands for x in c]
        got = backend.max_tu_subset(m, flat, len(cands), **opts)
        want = max_tu_subset_reference(m, cands, **opts)
        assert (got[0], list(got[1]), got[2], bool(got[3])) == want, (
            m, cands, opts)


def test_pure_max_tu_subset_past_packed_table(monkeypatch):
    # nodes past the packed minor table enumerate their minors instead
    cands = _sum_one_candidates(4)
    flat = [x for c in cands for x in c]
    full = pure.max_tu_subset(4, flat, len(cands), use_incremental=False)
    monkeypatch.setattr(pure, "_PACKED_MAX_LOG_FIELDS", 6)
    assert pure.max_tu_subset(4, flat, len(cands)) == full


@needs_compiled
def test_unimodular_violation_agreement():
    rng = random.Random(44)
    for _ in range(200):
        d = rng.randint(1, 3)
        npts = rng.randint(d + 1, 7)
        flat = [rng.randint(0, 1) for _ in range(npts * d)]
        assert (compiled.unimodular_violation(flat, npts, d)
                == pure.unimodular_violation(flat, npts, d))


def _random_perms(rng, npoints, count):
    perms = []
    for _ in range(count):
        p = list(range(npoints))
        rng.shuffle(p)
        perms.append(p)
    return perms


@needs_compiled
def test_canonical_masks_agreement():
    rng = random.Random(45)
    # 8 fills whole bytes; the others end in a partial byte of the mask
    for npoints in (5, 8, 12, 13):
        perms = _random_perms(rng, npoints, 5)
        got_c = compiled.canonical_masks(npoints, perms, 2, 5)
        got_p = pure.canonical_masks(npoints, perms, 2, 5)
        assert got_c == got_p
        # no perm maps a returned mask to a smaller one
        assert all(permute_mask(msk, p) >= msk
                   for msk in got_c for p in perms)


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.BACKEND_NAME)
def test_canonical_masks_partial_byte_matches_oracle(backend):
    rng = random.Random(46)
    for npoints in (0, 1, 2, 3, 5, 12, 13):
        perms = _random_perms(rng, npoints, 4)
        for lo, hi in ((0, npoints), (1, (npoints + 1) // 2)):
            assert (backend.canonical_masks(npoints, perms, lo, hi)
                    == canonical_masks_bruteforce(npoints, perms, lo, hi))


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.BACKEND_NAME)
def test_canonical_masks_cube_symmetries(backend):
    # subsets of the d-cube's vertices up to cube symmetry: 3, 6, 22, 402
    for d, orbits in ((1, 3), (2, 6), (3, 22), (4, 402)):
        _, perms = _cube_symmetry_index_perms(d)
        got = backend.canonical_masks(1 << d, perms, 0, 1 << d)
        assert got == canonical_masks_bruteforce(1 << d, perms, 0, 1 << d)
        assert len(got) == orbits
