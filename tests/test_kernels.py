"""Kernel tests: every kernel must match the brute-force oracles (values,
witnesses, search results, node counts)."""

import random
import tracemalloc
from itertools import combinations

import pytest

from tumax import _pykernels
from tumax import kernels
from tumax.errors import UsageError
from tumax.polytopes import _cube_symmetry_index_perms
from tumax.search import candidate_columns, max_polytopal_tu_columns

from helpers import (far_image, max_tu_subset_walk, packed_pair,
                     random_tu_matrix)
from oracles import (canonical_masks_bruteforce, coordinate_index_perms,
                     det_cofactor, first_violating_minor,
                     max_tu_subset_reference)


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
        assert kernels.tu_violation(rows) == first_violating_minor(rows)


def test_max_tu_subset_incremental_matches_full_check():
    # the incremental check sees only the minors through the new column;
    # it must accept exactly the subsets that re-checking every minor does
    rng = random.Random(47)
    for _ in range(150):
        m = rng.randint(1, 5)
        n = rng.randint(0, 12)
        cands = [[rng.choice((-1, -1, 0, 0, 1, 1, 2)) for _ in range(m)]
                 for _ in range(n)]
        assert (max_tu_subset_walk(cands)
                == max_tu_subset_reference(m, cands)), cands


def _search_cases():
    """(m, candidates, options) of the search families, m <= 4."""
    cases = []
    for mode, ms in (("polytopal", (2, 3, 4)), ("heller", (1, 2, 3)),
                     ("odd-sums", (1, 2, 3, 4))):
        for m in ms:
            cands = candidate_columns(m, mode)
            perms = list(coordinate_index_perms(cands, m))
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
        assert (max_tu_subset_walk(cands, **opts)
                == max_tu_subset_reference(m, cands, **opts)), (m, cands, opts)


def _pairwise_compat(cand, m):
    ok1 = [all(-1 <= e <= 1 for e in c) for c in cand]

    def fits(ci, cj):
        return all(-1 <= ci[a] * cj[b] - ci[b] * cj[a] <= 1
                   for a, b in combinations(range(m), 2))

    compat = [sum(1 << j for j in range(i + 1, len(cand))
                  if ok1[i] and ok1[j] and fits(cand[i], cand[j]))
              for i in range(len(cand))]
    return sum(1 << j for j in range(len(cand)) if ok1[j]), compat


def test_pair_masks_match_the_pairwise_2x2_minors():
    rng = random.Random(52)
    for _ in range(200):
        m = rng.randint(1, 5)
        cand = [tuple(rng.choice((-2, 2)) if rng.random() < 0.05
                      else rng.randint(-1, 1) for _ in range(m))
                for _ in range(rng.randint(0, 25))]
        assert (_pykernels._pair_masks(cand, m)
                == _pairwise_compat(cand, m)), cand


def test_node_budget_bounds_an_m8_search():
    # the 2x2 compatibility masks of the m = 8 candidates are built before
    # the first node is counted; one node later the search stops
    res = max_polytopal_tu_columns(8, node_budget=1, max_m=8)
    assert res.nodes == 1
    assert res.complete is False


def test_max_tu_subset_deeper_than_m_minus_1():
    # from depth m - 1 on a probe keeps only part of the Laplace image
    # (a prefix at depth m - 1, gathered runs deeper), yet every walk is
    # still the reference walk; the heller walks go far past depth m
    rng = random.Random(53)
    for m, budget in ((2, -1), (3, 100), (4, 25), (5, 16)):
        heller = candidate_columns(m, "heller")
        perms = list(coordinate_index_perms(heller, m))
        sample = rng.sample(heller, 2 * m + 5)
        cases = [(heller, {"node_budget": budget}),
                 (heller, {"perms": perms, "node_budget": budget}),
                 (heller[::-1], {"stop_at": m + 3}),
                 (sample, {"perms": [rng.sample(range(len(sample)),
                                                len(sample))]})]
        deepest = 0
        for cands, opts in cases:
            want = max_tu_subset_reference(m, cands, **opts)
            assert max_tu_subset_walk(cands, **opts) == want, (m, opts)
            deepest = max(deepest, want[0])
        assert deepest > m + 2, m


def _block_fields(columns, m):
    """The block of the last of these columns: det(M[R, T + [last]]) for
    each set T of earlier columns with at most m - 2 members, T = [] when
    m = 1 (bitmasks in numeric order), then each row set R; 0 when |R| !=
    |T| + 1."""
    out = []
    last = len(columns) - 1
    for t in range(1 << last):
        cs = [j for j in range(last) if t >> j & 1]
        if len(cs) > max(m - 2, 0):
            continue
        for r in range(1 << m):
            rs = [i for i in range(m) if r >> i & 1]
            out.append(det_cofactor([[columns[j][i] for j in cs + [last]]
                                     for i in rs])
                       if len(rs) == len(cs) + 1 else 0)
    return out


def _bad_orders_through_last(columns, m):
    """The orders of the minors through the last column that are outside
    {-1, 0, 1}."""
    last = len(columns) - 1
    bad = set()
    for k in range(1, min(m, last + 1) + 1):
        for cs in combinations(range(last), k - 1):
            for rs in combinations(range(m), k):
                d = det_cofactor([[columns[j][i] for j in cs + (last,)]
                                  for i in rs])
                if not -1 <= d <= 1:
                    bad.add(k)
    return bad


def _decoded_fields(minors, block, nfields):
    """The values held by a (pos, neg) block of nfields fields."""
    w = minors.w
    pos, neg = block
    assert pos >> (w * nfields) == 0 and neg >> (w * nfields) == 0
    out = []
    for f in range(nfields):
        p = pos >> (w * f) & ((1 << w) - 1)
        n = neg >> (w * f) & ((1 << w) - 1)
        assert p in (0, 1) and n in (0, 1) and not p & n, f
        out.append(p - n)
    return out


def test_packed_minor_pairs_match_cofactor_determinants():
    # push the columns of a TU matrix one by one and read back every
    # field of each block, also past depth m - 2, where the images of
    # the order-m minors are dropped; then append a random sign column
    # level by level: each probe fails exactly when a minor through the
    # new column, order-m ones included, is outside {-1, 0, 1}, and
    # otherwise holds the block of the longer matrix's last column
    rng = random.Random(91)
    outcomes = set()
    for _ in range(120):
        m = rng.randint(1, 5)
        c = rng.randint(0, m + 3)
        mat = random_tu_matrix(rng, m, c)
        cols = [mat.col(j) for j in range(c)]
        minors = _pykernels._PackedMinors(m)
        for j in range(c):
            block = packed_pair(minors, j, cols[j])
            want = _block_fields(cols[:j + 1], m)
            assert _decoded_fields(minors, block, len(want)) == want
            minors.push(j, block)
        v = tuple(rng.randint(-1, 1) for _ in range(m))
        terms = minors.terms(v)
        level = minors.single(terms)
        want = _block_fields([v], m)
        assert _decoded_fields(minors, level, len(want)) == want
        for j in range(1, c + 1):
            bad = _bad_orders_through_last(cols[:j] + [v], m)
            level = minors.probe(j, terms, level)
            assert (level is None) == bool(bad), (cols, v, j)
            if level is None:
                outcomes.add("order m" if bad == {m} else "lower order")
                break
            outcomes.add(f"kept {'all' if j <= m - 2 else 'part'}")
            want = _block_fields(cols[:j] + [v], m)
            assert _decoded_fields(minors, level, len(want)) == want
    assert outcomes == {"order m", "lower order", "kept all", "kept part"}


def test_unimodular_violation_matches_oracle():
    rng = random.Random(44)
    for _ in range(200):
        d = rng.randint(1, 3)
        npts = rng.randint(d + 1, 7)
        pts = [[rng.randint(0, 1) for _ in range(d)] for _ in range(npts)]
        want = _first_nonunimodular_simplex(pts)
        assert kernels.unimodular_violation(pts) == want


def _first_nonunimodular_simplex(pts):
    """The first (d+1)-subset, in combinations order, whose difference
    vectors have a determinant outside {-1, 0, 1}, with that determinant."""
    d = len(pts[0])
    for subset in combinations(range(len(pts)), d + 1):
        p0 = pts[subset[0]]
        det = det_cofactor([[x - y for x, y in zip(pts[i], p0)]
                            for i in subset[1:]])
        if not -1 <= det <= 1:
            return (subset, det)
    return None


def test_unimodular_violation_is_exact_on_big_coordinates():
    """Cube subsets under a unimodular map with 40-bit entries and a shift
    near 2**61 keep their simplex determinants; random points near
    +-2**62 have determinants far past 64 bits. The kernel agrees with
    the cofactor oracle on both."""
    rng = random.Random(45)
    verdicts = set()
    wide = 0
    for _ in range(120):
        d = rng.randint(1, 3)
        npts = rng.randint(d + 1, 6)
        if rng.random() < 0.5:
            pts = far_image(rng, list({tuple(rng.randint(0, 1)
                                             for _ in range(d))
                                       for _ in range(npts)}))
        else:
            pts = [[rng.choice((-1, 1)) * ((1 << 62) - rng.randint(0, 99))
                    for _ in range(d)] for _ in range(npts)]
        want = _first_nonunimodular_simplex(pts)
        assert kernels.unimodular_violation(pts) == want, pts
        verdicts.add(want is None)
        wide += want is not None and abs(want[1]) >= 1 << 63
    assert verdicts == {True, False} and wide > 20


def _random_cyclic_group(rng, npoints):
    """The powers of a random permutation of ``npoints`` points, without
    the identity: a permutation group as ``canonical_masks`` takes it."""
    gen = list(range(npoints))
    rng.shuffle(gen)
    group = []
    power = gen
    while power != sorted(power):
        group.append(power)
        power = [gen[i] for i in power]
    return group


def test_canonical_masks_partial_byte_matches_oracle():
    # point counts that are not multiples of 8, under seeded random groups
    rng = random.Random(46)
    for npoints in (0, 1, 2, 3, 5, 12, 13):
        for _ in range(2):
            perms = _random_cyclic_group(rng, npoints)
            for lo, hi in ((0, npoints), (1, (npoints + 1) // 2)):
                assert (kernels.canonical_masks(npoints, perms, lo, hi)
                        == canonical_masks_bruteforce(npoints, perms, lo, hi))


def test_canonical_masks_tables_stay_small():
    # 383 symmetries x 2 bytes x 256 16-bit entries is about 0.4 MB of
    # tables; as lists of Python ints they took about 7 MB
    perms = _cube_symmetry_index_perms(4)
    tracemalloc.start()
    try:
        kernels.canonical_masks(16, perms, 5, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_canonical_masks_admits_at_most_16_points():
    # the tables hold 16-bit images of two bytes; 17 points raise before
    # any table or the 2**17-byte seen array is built
    swap = [1, 0] + list(range(2, 17))
    with pytest.raises(UsageError, match="at most 16 points, got 17"):
        kernels.canonical_masks(17, [swap], 0, 17)


def test_canonical_masks_cube_symmetries():
    # subsets of the d-cube's vertices up to cube symmetry: 3, 6, 22, 402
    for d, orbits in ((1, 3), (2, 6), (3, 22), (4, 402)):
        perms = _cube_symmetry_index_perms(d)
        got = kernels.canonical_masks(1 << d, perms, 0, 1 << d)
        assert got == canonical_masks_bruteforce(1 << d, perms, 0, 1 << d)
        assert len(got) == orbits
