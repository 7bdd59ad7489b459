"""The replayed CLI corpus: ``check tu|unimodular|polytopal|prepared|
unimodular-polytope`` and ``verify vertex-bound`` on seeded inputs, with
the stdout, stderr and exit status each one gave.

``tests/test_cli.py`` replays ``data/cli_corpus.json`` through
``cli.main`` and compares. Run this file by hand to rewrite the expected
outputs after a change that means to alter them; the diff of the data
file then shows every output that moved:

    PYTHONPATH=src python tests/cli_corpus.py [OUT.json]
"""

import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from tumax import cli

from helpers import (
    OVERFLOW_POLYTOPAL_ROWS,
    OVERFLOW_POLYTOPE_POINTS,
    random_unimodular,
)
from oracles import network_column_bfs, random_tree_arcs

CORPUS = Path(__file__).parent / "data" / "cli_corpus.json"
INPUT = "input.txt"  # the file name every command reads, in its own folder


def _rows(columns):
    return [list(r) for r in zip(*columns)]


def _lines(rows):
    return [f"{len(rows)} {len(rows[0])}"] + [" ".join(map(str, r))
                                              for r in rows]


def _network(rng, nrows, ncols):
    arcs = random_tree_arcs(rng, nrows + 1)
    return _rows([network_column_bfs(nrows + 1, arcs, *rng.sample(
        range(nrows + 1), 2)) for _ in range(ncols)])


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _hstack(a, b):
    return [ra + rb for ra, rb in zip(a, b)]


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _simplex_product(a, b):
    def verts(k):
        return [tuple(int(i == j) for j in range(k)) for i in range(-1, k)]
    return [u + v for u in verts(a) for v in verts(b)]


def _image(rng, points, dim):
    """The points, padded with zeros to ``dim`` coordinates, under a seeded
    unimodular map and shift: a lattice-isomorphic copy, not
    full-dimensional when dim exceeds the affine rank."""
    u = random_unimodular(rng, dim, 3 * dim).entries
    shift = [rng.randint(-3, 3) for _ in range(dim)]
    pts = [tuple(p) + (0,) * (dim - len(p)) for p in points]
    return _rows([[sum(a * x for a, x in zip(u[k], p)) + shift[k]
                   for k in range(dim)] for p in pts])


def cases():
    """(name, argv, input lines) of every corpus entry, in order."""
    rng = random.Random(2024)
    out = []

    def check(what, name, lines, *flags):
        out.append((f"check {what}/{name}", ["check", what, INPUT, *flags],
                    lines))

    # check tu: both methods, witnesses, both budgets, format errors
    check("tu", "identity-3", _lines(_identity(3)))
    check("tu", "det-2", _lines([[1, 1], [1, -1]]))
    check("tu", "entry-2", _lines([[0, 2], [1, 0]]))
    check("tu", "entry-2-gh", _lines([[0, 2], [1, 0]]), "--method", "gh")
    for seed in range(3):
        check("tu", f"network-{seed}", _lines(_network(rng, 4, 6)))
    check("tu", "network-gh", _lines(_network(rng, 5, 7)),
          "--method", "ghouila-houri")
    for seed in range(4):
        check("tu", f"sign-{seed}", _lines(
            [[rng.randint(-1, 1) for _ in range(5)] for _ in range(3)]))
    check("tu", "sign-gh", _lines([[1, 1, 0], [0, 1, 1], [1, 0, 1]]),
          "--method", "gh")
    check("tu", "empty-0x0", ["0 0"])
    check("tu", "minors-over-budget", _lines([[0] * 8] * 9),
          "--method", "minors")
    check("tu", "both-budgets", _lines([[0]] * 21))
    check("tu", "gh-over-rows", _lines([[0]] * 21), "--method", "gh")
    check("tu", "bad-method", _lines(_identity(2)), "--method", "lp")
    check("tu", "empty-file", [])
    check("tu", "bad-header", ["2"])
    check("tu", "non-integer", ["1 2", "1 x"])
    check("tu", "short-row", ["2 2", "1 0", "1"])
    check("tu", "missing-row", ["2 2", "1 0"])
    check("tu", "trailing", ["1 1", "1", "1"])
    check("tu", "negative-size", ["-1 2"])
    check("tu", "past-64-bits", ["1 1", str(1 << 63)])
    out.append(("check tu/missing-file", ["check", "tu", "missing.txt"], []))

    # check unimodular: (I | N), pivots above 1, rank, the row budget
    for seed in range(2):
        check("unimodular", f"identity-network-{seed}",
              _lines(_hstack(_identity(3), _network(rng, 3, 4))))
    check("unimodular", "pivot-2", _lines([[1, 0, 1], [0, 2, 1]]))
    check("unimodular", "n-not-tu", _lines(
        _hstack(_identity(2), [[1, 1], [1, -1]])))
    for seed in range(4):
        check("unimodular", f"integer-{seed}", _lines(
            [[rng.randint(-2, 2) for _ in range(5)] for _ in range(3)]))
    check("unimodular", "scrambled", _lines(_matmul(
        random_unimodular(rng, 4, 8).entries,
        _hstack(_identity(4), _network(rng, 4, 3)))))
    check("unimodular", "rank-deficient", _lines([[1, 2], [2, 4]]))
    check("unimodular", "over-row-budget", _lines(
        _hstack(_identity(21), _identity(21))))

    # check polytopal: certificates, rank deficiency, no columns, and a
    # 6 x 7 input whose HNF transform outgrows 64 bits
    check("polytopal", "incidence-k23", _lines(
        [[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1], [1, 0, 0, 1, 0, 0],
         [0, 1, 0, 0, 1, 0]]))
    check("polytopal", "doubled", _lines([[1, 2], [2, 4]]))
    check("polytopal", "rank-deficient", _lines([[1, 1, 1], [1, 1, 1]]))
    check("polytopal", "no-columns", ["2 0", "", ""])
    check("polytopal", "no-rows", ["0 3"])
    check("polytopal", "overflow-6x7", _lines(OVERFLOW_POLYTOPAL_ROWS))
    for seed in range(3):
        check("polytopal", f"integer-{seed}", _lines(
            [[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)]))
    check("polytopal", "scrambled", _lines(_matmul(
        random_unimodular(rng, 3, 9).entries,
        [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]])))

    # check prepared
    check("prepared", "incidence-k22", _lines(
        [[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]]))
    check("prepared", "duplicate-columns", _lines([[1, 1, 0], [0, 0, 1]]))
    check("prepared", "not-tu", _lines([[1, 1], [1, -1]]))
    check("prepared", "not-polytopal", _lines([[1, 2]]))

    # check unimodular-polytope and verify vertex-bound: the same point
    # sets, full-dimensional or lifted, in or out of convex position
    cube3 = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    sets = [
        ("square-lifted", _rows([(0, 0, 1), (1, 0, 1), (0, 1, 1),
                                 (1, 1, 1)])),
        ("triangle-index-2", _rows([(0, 0, 0), (0, -2, -2), (1, 1, 2)])),
        ("overflow-7x8", _rows(OVERFLOW_POLYTOPE_POINTS)),
        ("collinear", [[0, 1, 2]]),
        ("delta2xdelta2", _rows(_simplex_product(2, 2))),
        ("delta2xdelta2-lifted", _image(rng, _simplex_product(2, 2), 6)),
        ("delta1xdelta2-lifted", _image(rng, _simplex_product(1, 2), 5)),
        ("edge-k33", _rows([tuple(int(v in (i, 3 + j)) for v in range(6))
                            for i in range(3) for j in range(3)])),
        ("cube", _rows(cube3)),
        ("cube-lifted", _image(rng, cube3, 4)),
        ("single-point", [[3], [-1]]),
    ]
    for seed in range(6):
        pts = rng.sample(cube3, rng.randint(4, 7))
        sets.append((f"cube-subset-{seed}", _image(rng, pts, 5)))
    for name, rows in sets:
        check("unimodular-polytope", name, _lines(rows))
        out.append((f"verify vertex-bound/{name}",
                    ["verify", "vertex-bound", INPUT], _lines(rows)))
    check("unimodular-polytope", "duplicate-points", _lines([[0, 0, 1]]))
    check("unimodular-polytope", "no-points", ["2 0", "", ""])
    return out


def replay(argv, lines, workdir):
    """(stdout, stderr, exit status) of ``tumax argv`` run in ``workdir``
    with the input lines written to ``INPUT`` there."""
    Path(workdir, INPUT).write_text("".join(line + "\n" for line in lines))
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            status = cli.main(argv)
    finally:
        os.chdir(cwd)
    return stdout.getvalue(), stderr.getvalue(), status


def main(path=CORPUS):
    entries = []
    with tempfile.TemporaryDirectory() as workdir:
        for name, argv, lines in cases():
            stdout, stderr, status = replay(argv, lines, workdir)
            entries.append({"name": name, "argv": argv, "input": lines,
                            "stdout": json.loads(stdout) if stdout else None,
                            "stderr": stderr, "exit": status})
    # one line per field, so that a moved output shows as one changed line
    Path(path).write_text("[\n" + ",\n".join(
        "{" + ",\n ".join(f"{json.dumps(k)}: {json.dumps(v)}"
                          for k, v in entry.items()) + "}"
        for entry in entries) + "\n]\n")


if __name__ == "__main__":
    main(*sys.argv[1:])
