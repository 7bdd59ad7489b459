"""The exact phase-1 simplex, checked against the Caratheodory hull oracle,
which shares no code with it."""

import random
from itertools import combinations

import pytest

from tumax.errors import UsageError
from tumax.lp import feasible_nonneg, in_convex_hull

from oracles import in_convex_hull_caratheodory


def _hull_cases(rng):
    """(kind, point, points): point sets in a small box, lower-dimensional
    sets, one-point sets, and sets far out near +-2**62; each asked about
    its own points, midpoints of its pairs (on an edge, a face or inside),
    its centroid when integral, and nearby lattice points."""
    for _ in range(500):
        d = rng.randint(1, 4)
        n = rng.randint(1, d + 3)
        kind = rng.choice(("box", "flat", "far"))
        if kind == "flat":
            # affine rank below d: every point on a line or plane
            r = rng.randint(0, d - 1) if d >= 2 else 0
            gens = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(r)]
            pts = [tuple(sum(rng.randint(-1, 1) * g[k] for g in gens)
                         for k in range(d)) for _ in range(n)]
        else:
            pts = [tuple(rng.randint(-2, 2) for _ in range(d))
                   for _ in range(n)]
        # doubled, so that every midpoint of two points is a lattice point
        pts = [tuple(2 * x for x in p) for p in dict.fromkeys(pts)]
        if kind == "far":
            shift = [rng.choice((-1, 1)) * ((1 << 62) - rng.randint(0, 9))
                     for _ in range(d)]
            pts = [tuple(x + s for x, s in zip(p, shift)) for p in pts]
        queries = list(pts)
        queries += [tuple((x + y) // 2 for x, y in zip(p, q))
                    for p, q in combinations(pts, 2)]
        total = [sum(c) for c in zip(*pts)]
        if all(t % len(pts) == 0 for t in total):
            queries.append(tuple(t // len(pts) for t in total))
        queries += [tuple(x + rng.randint(-1, 1) for x in p) for p in pts]
        for q in rng.sample(queries, min(len(queries), 6)):
            yield kind, q, pts


def test_in_convex_hull_matches_the_caratheodory_oracle():
    rng = random.Random(31)
    verdicts = {}
    for kind, q, pts in _hull_cases(rng):
        expected = in_convex_hull_caratheodory(q, pts)
        assert in_convex_hull(q, pts) == expected, (q, pts)
        key = (kind, len(pts) == 1, expected)
        verdicts[key] = verdicts.get(key, 0) + 1
    # (kind, a one-point set, in the hull)
    assert verdicts == {
        ("box", False, True): 672, ("box", False, False): 174,
        ("box", True, True): 82, ("box", True, False): 32,
        ("flat", False, True): 275, ("flat", False, False): 91,
        ("flat", True, True): 203, ("flat", True, False): 88,
        ("far", False, True): 650, ("far", False, False): 166,
        ("far", True, True): 60, ("far", True, False): 21}


def test_in_convex_hull_of_no_points_and_one_point():
    assert not in_convex_hull((0, 0), [])
    assert in_convex_hull((3, -1), [(3, -1)])
    assert not in_convex_hull((3, 0), [(3, -1)])
    far = (1 << 62) - 1
    assert in_convex_hull((far, -far), [(far, -far)])
    assert not in_convex_hull((far, -far + 1), [(far, -far)])


def test_in_convex_hull_refuses_points_of_another_dimension():
    # read by its first coordinate alone, (0,) would lie in the hull
    for points in ([(0, 5), (0, 7)], [(0,), (0, 7)]):
        with pytest.raises(UsageError) as info:
            in_convex_hull((0,), points)
        assert str(info.value) == "points must have the dimension of the point"


def test_in_convex_hull_takes_only_int_points():
    # with 0.5 in the pivots, (0.5,) was found in the hull of 0 and -3
    for point, points, message in (
            ((0.5,), [(0,), (-3,)], "point must hold integers, got 0.5"),
            ((0,), [(True,), (-3,)], "points must hold integers, got True")):
        with pytest.raises(UsageError) as info:
            in_convex_hull(point, points)
        assert str(info.value) == message


def test_feasible_nonneg_ends_on_a_degenerate_system():
    # zero right-hand sides make degenerate pivots; here the smallest basis
    # index among the tied rows is what keeps the walk from cycling
    a = [[-2, -2, 1, 2, 3, 3], [1, 1, 3, 2, 2, 0], [-1, 2, -2, -2, 3, 2]]
    b = [1, 0, 0]
    # infeasible by Farkas' lemma: y A >= 0 while y b < 0
    y = (-2, 5, 3)
    assert [sum(yi * row[j] for yi, row in zip(y, a))
            for j in range(6)] == [6, 15, 7, 0, 13, 0]
    assert sum(yi * bi for yi, bi in zip(y, b)) == -2
    assert not feasible_nonneg(a, b)


def test_feasible_nonneg_on_small_systems():
    # x + y = 1, x - y = 3 has the solution x = 2, y = -1: not nonnegative
    assert not feasible_nonneg([[1, 1], [1, -1]], [1, 3])
    # 2x + 3y = 7 with x, y >= 0 is feasible (x = 2, y = 1)
    assert feasible_nonneg([[2, 3]], [7])
    # a negative right-hand side flips its row: -x = -2
    assert feasible_nonneg([[-1]], [-2])
    assert not feasible_nonneg([[1]], [-2])
    assert feasible_nonneg([], [])
