"""The replayed CLI corpus: every subcommand but ``classify`` (whose
output ``data/classify_cli.json`` pins) on seeded inputs, with the
stdout, stderr and exit status each one gave.

An entry's input is the lines of ``INPUT``, or a mapping from file names
to lines for commands that read several files. Its stdout is stored as
the parsed JSON report, or as the text itself for artifact and ``--format
text`` output; a search report is stored and compared without its
``seconds``, the only field that varies from run to run.

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
from oracles import matmul, network_column_bfs, random_tree_arcs
from specgen import random_certificate, random_spec

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
    """(name, argv, input) of every corpus entry, in order; the input as
    ``replay`` takes it."""
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
    check("tu", "gh-over-both-sides", _lines(_identity(21)), "--method", "gh")
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
    check("unimodular", "scrambled", _lines(matmul(
        random_unimodular(rng, 4, 8).entries,
        _hstack(_identity(4), _network(rng, 4, 3)))))
    check("unimodular", "rank-deficient", _lines([[1, 2], [2, 4]]))
    check("unimodular", "over-row-budget", _lines(
        _hstack(_identity(21), _identity(21))))
    entry_2 = _identity(21)
    entry_2[3][5] = 2
    check("unimodular", "over-row-budget-entry-2", _lines(
        _hstack(_identity(21), entry_2)))

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
    check("polytopal", "scrambled", _lines(matmul(
        random_unimodular(rng, 3, 9).entries,
        [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]])))

    # check prepared
    check("prepared", "incidence-k22", _lines(
        [[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]]))
    check("prepared", "duplicate-columns", _lines([[1, 1, 0], [0, 0, 1]]))
    check("prepared", "not-tu", _lines([[1, 1], [1, -1]]))
    check("prepared", "not-polytopal", _lines([[1, 2]]))
    check("prepared", "tall-21x10", _lines([row[:10] for row in _identity(21)]))

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
    # K_{4,5} (d = 7, 20 points) is unimodular; Delta_1 x Delta_21 (d = 22,
    # 44 points) is too, but its Ghouila-Houri check is one row past the
    # budget, so it exits 3
    for name, rows in (
            ("edge-k45", _rows([tuple(int(v in (i, 4 + j)) for v in range(9))
                                for i in range(4) for j in range(5)])),
            ("delta1xdelta21", _rows(_simplex_product(1, 21)))):
        check("unimodular-polytope", name, _lines(rows))
        out.append((f"verify vertex-bound/{name}",
                    ["verify", "vertex-bound", INPUT], _lines(rows)))
    _gen_cases(out)
    _network_cases(out)
    _sum_cases(out)
    _verify_cases(out)
    _token_cases(out)
    return out


def _graph(nvertices, arcs):
    return [f"{nvertices} {len(arcs)}"] + [f"{a} {b}" for a, b in arcs]


def _gen_cases(out):
    """gen: every family, as text and once as JSON, and its errors."""
    def gen(*argv, files=None):
        out.append((" ".join(("gen",) + argv), ["gen", *argv], files or {}))

    gen("heller", "--m", "2")
    gen("heller", "--m", "4")
    gen("bipartite", "--m", "1")
    gen("bipartite", "--m", "4")
    gen("bipartite", "--m", "6")
    gen("sporadic-5x10")
    gen("sporadic-5x5", "--variant", "1")
    gen("sporadic-5x5", "--variant", "2")
    gen("ex4")
    gen("simplex-product", "--a", "1", "--b", "2")
    gen("simplex-product", "--a", "0", "--b", "0")
    gen("edge-polytope", "--complete", "2", "3")
    gen("edge-polytope", "--complete", "0", "2")
    out.append(("gen heller --m 3 (json)",
                ["--format", "json", "gen", "heller", "--m", "3"], {}))
    # a path 0-1-2-3 and a 4-cycle, both bipartite with parts {0, 2}, {1, 3}
    path = {"graph.txt": _graph(4, [(0, 1), (2, 1), (2, 3)])}
    cycle = {"graph.txt": _graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])}
    gen("edge-polytope", "--graph", "graph.txt", "--part-a", "0,2",
        files=path)
    gen("edge-polytope", "--graph", "graph.txt", "--part-a", "0 2",
        files=cycle)
    # errors: sizes, variants, parts, graphs and missing options
    gen("heller", "--m", "1")
    gen("heller", "--m", "x")
    gen("bipartite", "--m", "0")
    gen("bipartite", "--m", "5")
    gen("sporadic-5x5", "--variant", "3")
    gen("simplex-product", "--a", "-1", "--b", "2")
    gen("edge-polytope", "--complete", "2")
    gen("edge-polytope")
    gen("edge-polytope", "--graph", "graph.txt", files=path)
    gen("edge-polytope", "--graph", "graph.txt", "--part-a", "0,1",
        files=path)
    gen("edge-polytope", "--graph", "graph.txt", "--part-a", "0,9",
        files=path)
    gen("edge-polytope", "--graph", "graph.txt", "--part-a", "0,x",
        files=path)
    gen("edge-polytope", "--graph", "graph.txt", "--part-a", "0",
        files={"graph.txt": ["2 1", "0 5"]})
    gen("edge-polytope", "--graph", "missing.txt", "--part-a", "0")
    gen("frobnicate")


def _network_cases(out):
    """network build|patterns|bounds on seeded trees, and their errors."""
    rng = random.Random(2025)

    def network(what, name, files):
        second = "paths.txt" if what == "patterns" else "digraph.txt"
        out.append((f"network {what}/{name}",
                    ["network", what, "tree.txt", second], files))

    for seed in range(4):
        n = rng.randint(2, 7)
        tree = _graph(n, random_tree_arcs(rng, n))
        digraph = _graph(n, [tuple(rng.sample(range(n), 2))
                             for _ in range(rng.randint(1, 6))])
        paths = [" ".join(map(str, rng.sample(range(n), 2)))
                 for _ in range(rng.randint(1, 6))]
        network("build", f"random-{seed}",
                {"tree.txt": tree, "digraph.txt": digraph})
        network("bounds", f"random-{seed}",
                {"tree.txt": tree, "digraph.txt": digraph})
        network("patterns", f"random-{seed}",
                {"tree.txt": tree, "paths.txt": paths})
    # on the directed path 0-1-2-3 every arc s -> t with t - s odd has a
    # positive odd column: (|A0| + 1)^2 / 4 = 4 columns meet the bound
    path = _graph(4, [(0, 1), (1, 2), (2, 3)])
    network("bounds", "path-equality",
            {"tree.txt": path,
             "digraph.txt": _graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])})
    network("bounds", "loop-and-reverse",
            {"tree.txt": path, "digraph.txt": _graph(4, [(2, 2), (3, 0)])})
    network("build", "no-arcs",
            {"tree.txt": path, "digraph.txt": ["4 0"]})
    out.append(("network build/json",
                ["--format", "json", "network", "build", "tree.txt",
                 "digraph.txt"],
                {"tree.txt": path, "digraph.txt": _graph(4, [(3, 1)])}))
    # one, two and three paths: the bounds apply from two and three on
    star = _graph(5, [(0, 1), (0, 2), (3, 0), (4, 0)])
    for k in (1, 2, 3):
        network("patterns", f"star-{k}",
                {"tree.txt": star,
                 "paths.txt": ["1 2", "3 4", "1 3", "", "2 4"][:k + 1]})
    # 64 and 65 paths on a path tree
    for k in (64, 65):
        network("patterns", f"{k}-paths",
                {"tree.txt": path,
                 "paths.txt": [f"{i % 4} {(i + 1 + i // 4) % 4}"
                               for i in range(k)]})
    # structure and format errors
    cycle = _graph(3, [(0, 1), (1, 2), (2, 0)])
    network("build", "not-a-tree", {"tree.txt": cycle, "digraph.txt": path})
    network("patterns", "not-a-tree", {"tree.txt": cycle,
                                       "paths.txt": ["0 1"]})
    # n - 1 arcs that are no tree: a triangle beside an isolated vertex,
    # and a self-loop; no vertex is no tree, while one vertex is one
    triangle = _graph(4, [(0, 1), (1, 2), (2, 0)])
    network("build", "isolated-vertex",
            {"tree.txt": triangle, "digraph.txt": _graph(4, [(0, 3)])})
    network("patterns", "isolated-vertex",
            {"tree.txt": triangle, "paths.txt": ["0 1"]})
    network("build", "self-loop",
            {"tree.txt": _graph(2, [(1, 1)]), "digraph.txt": _graph(2, [])})
    network("build", "no-vertices",
            {"tree.txt": _graph(0, []), "digraph.txt": _graph(0, [])})
    network("patterns", "one-vertex",
            {"tree.txt": _graph(1, []), "paths.txt": ["0 0"]})
    network("build", "digraph-too-big",
            {"tree.txt": path, "digraph.txt": _graph(5, [(0, 4)])})
    network("patterns", "endpoint-out-of-range",
            {"tree.txt": path, "paths.txt": ["0 4"]})
    network("patterns", "short-path-line",
            {"tree.txt": path, "paths.txt": ["0 1", "2"]})
    network("patterns", "non-integer-endpoint",
            {"tree.txt": path, "paths.txt": ["0 y"]})
    for name, lines in (("empty", []), ("short-header", ["4"]),
                        ("non-integer-header", ["4 x"]),
                        ("negative-count", ["4 -1"]),
                        ("missing-arc", ["4 3", "0 1", "1 2"]),
                        ("long-arc-line", ["4 3", "0 1 2", "1 2", "2 3"]),
                        ("non-integer-vertex", ["4 3", "0 1", "1 z", "2 3"]),
                        ("unknown-vertex", ["4 3", "0 1", "1 2", "2 7"]),
                        ("trailing", path + ["3 0"])):
        network("build", f"tree-{name}",
                {"tree.txt": lines, "digraph.txt": path})
    out.append(("network build/missing-file",
                ["network", "build", "tree.txt", "missing.txt"],
                {"tree.txt": path}))


def _sum_cases(out):
    """sum one|two|three|delta|transport on seeded specs (tests/specgen.py),
    with format, kind and certificate errors."""
    from tumax.sums import compose

    rng = random.Random(2026)

    def sum_(what, name, lines, *flags):
        out.append((f"sum {what}/{name}", ["sum", what, INPUT, *flags],
                    lines))

    specs = {}
    for kind in ("one", "two", "three", "delta"):
        for seed in range(2):
            spec = random_spec(rng, f"{kind}-sum")
            specs[kind, seed] = spec
            sum_(kind, f"random-{seed}", [json.dumps(spec.to_json_dict())])
    for kind in ("two", "three", "delta"):
        for seed in range(2):
            spec = specs[kind, seed]
            composed = compose(spec).matrix
            # the first row of the composed matrix is w-valued for e_1
            f = [1] + [0] * (composed.rows - 1)
            sum_("transport", f"{kind}-e1-{seed}",
                 [json.dumps(spec.to_json_dict())],
                 "--f", ",".join(map(str, f)),
                 "--w=" + ",".join(map(str, composed.row(0))))
        f, w = random_certificate(rng, composed)
        sum_("transport", f"{kind}-random",
             [json.dumps(spec.to_json_dict())],
             "--f=" + ",".join(map(str, f)),
             "--w=" + " ".join(map(str, w)))
    two = [json.dumps(specs["two", 0].to_json_dict())]
    shape = compose(specs["two", 0]).matrix
    e1 = ",".join(["1"] + ["0"] * (shape.rows - 1))
    sum_("transport", "one-sum", [json.dumps(specs["one", 0].to_json_dict())],
         "--f", "1", "--w", "1")
    sum_("transport", "zero-functional", two,
         "--f", ",".join(["0"] * shape.rows),
         "--w", ",".join(["0"] * shape.cols))
    sum_("transport", "w-not-certified", two, "--f", e1,
         "--w", ",".join(["5"] * shape.cols))
    sum_("transport", "f-too-short", two, "--f", "1",
         "--w", ",".join(["5"] * shape.cols))
    sum_("transport", "w-too-short", two, "--f", e1, "--w", "1")
    sum_("transport", "non-integer-f", two, "--f", "1,x", "--w", "1")
    sum_("transport", "non-integer-w", two, "--f", "1", "--w", "1.5")
    sum_("one", "kind-mismatch", two)
    sum_("one", "bad-json", ["{", '  "kind": "one-sum",', "  bad", "}"])
    sum_("one", "not-an-object", ["[1, 2]"])
    sum_("one", "no-blocks", ['{"kind": "one-sum"}'])
    sum_("one", "unknown-kind", ['{"kind": "four-sum", "A": [[1]], '
                                 '"B": [[1]]}'])
    sum_("one", "non-integer-entry", ['{"kind": "one-sum", "A": [[1.5]], '
                                      '"B": [[1]]}'])
    sum_("one", "factor-not-tu", ['{"kind": "one-sum", "A": [[1, 1], '
                                  '[1, -1]], "B": [[1]]}'])
    sum_("two", "vector-too-long", ['{"kind": "two-sum", "A": [[1]], '
                                    '"B": [[1]], "u": [1, 0], "v": [1]}'])
    # a 0x0 A: the sum is B under an empty (A | u v^T)
    sum_("two", "empty-a", ['{"kind": "two-sum", "A": [], '
                            '"B": [[1, 0], [0, 1]], "u": [], "v": [1, 0]}'])
    out.append(("sum two/missing-file", ["sum", "two", "missing.txt"], []))


def _verify_cases(out):
    """verify extralemma|transpose-bound and the searches with m <= 4,
    budgets and usage errors."""
    def verify(*argv):
        out.append((" ".join(("verify",) + argv), ["verify", *argv], {}))

    verify("extralemma")
    verify("extralemma", "--max", "10")
    verify("extralemma", "--max", "9")
    out.append(("verify extralemma --max 10 (text)",
                ["--format", "text", "verify", "extralemma", "--max", "10"],
                {}))
    verify("transpose-bound", "--samples", "40", "--seed", "3")
    verify("transpose-bound", "--samples", "0")
    verify("transpose-bound", "--samples", "-1")
    for m in (2, 3, 4):
        verify("polytopal-bound", "--m", str(m))
    verify("polytopal-bound", "--m", "4", "--mode", "fast")
    verify("polytopal-bound", "--m", "4", "--budget-nodes", "5")
    verify("polytopal-bound", "--m", "3", "--budget-nodes", "0")
    verify("polytopal-bound", "--m", "1")
    verify("polytopal-bound", "--m", "7")
    verify("polytopal-bound", "--m", "3", "--max-m", "2")
    verify("polytopal-bound", "--m", "3", "--budget-nodes", "-1")
    verify("polytopal-bound", "--m", "3", "--mode", "slow")
    for m in (1, 2):
        verify("heller-bound", "--m", str(m))
    verify("heller-bound", "--m", "3", "--mode", "fast")
    verify("heller-bound", "--m", "3", "--budget-nodes", "1000")
    verify("heller-bound", "--m", "4")
    for m in (1, 2, 3, 4):
        verify("odd-bound", "--m", str(m))
    verify("odd-bound", "--m", "4", "--mode", "fast")
    verify("odd-bound", "--m", "4", "--mode", "fast", "--budget-nodes", "7")
    verify("odd-bound", "--m", "0")
    verify("bogus-bound")


def _token_cases(out):
    """Inputs past 64 bits in their kernels but not in their entries, and
    integer tokens other than ASCII [+-]?[0-9]+ in every text format."""
    # the triangle 0, 2^40 e_1, 2^40 e_2: its determinant is 2^80
    big = ["2 3", f"0 {1 << 40} 0", f"0 0 {1 << 40}"]
    out.append(("check unimodular-polytope/triangle-2^40",
                ["check", "unimodular-polytope", INPUT], big))
    out.append(("verify vertex-bound/triangle-2^40",
                ["verify", "vertex-bound", INPUT], big))
    out.append(("check tu/triangle-2^40", ["check", "tu", INPUT], big))
    # the segment from -(2^63 - 1) to 2^63 - 1: its entries fit 64 bits,
    # its difference does not
    out.append(("check unimodular-polytope/wide-segment",
                ["check", "unimodular-polytope", INPUT],
                ["1 2", f"{1 - (1 << 63)} {(1 << 63) - 1}"]))
    for name, lines in (("signed", ["2 +2", "+1 -0", "-1 1"]),
                        ("underscore", ["1 2", "1_0 1"]),
                        ("arabic-indic", ["1 2", "1 \u0661"]),
                        ("both", ["1 2", "1_0 \u0661"]),
                        ("fullwidth", ["1 1", "\uff11"]),
                        ("header-underscore", ["1_0 1"] + ["1"] * 10),
                        ("decimal-point", ["1 1", "1.0"]),
                        ("exponent", ["1 1", "1e0"]),
                        ("bare-sign", ["1 1", "-"])):
        out.append((f"check tu/token-{name}", ["check", "tu", INPUT], lines))
    path = _graph(3, [(0, 1), (1, 2)])
    out.append(("network patterns/token-path",
                ["network", "patterns", "tree.txt", "paths.txt"],
                {"tree.txt": path, "paths.txt": ["0 2", "0 0_2"]}))
    out.append(("network patterns/token-tree-header",
                ["network", "patterns", "tree.txt", "paths.txt"],
                {"tree.txt": ["\u0663 2", "0 1", "1 2"],
                 "paths.txt": ["0 2"]}))
    out.append(("network build/token-arc",
                ["network", "build", "tree.txt", "digraph.txt"],
                {"tree.txt": path, "digraph.txt": ["3 1", "0_0 2"]}))
    for name, value in (("underscore", "0_1"), ("arabic-indic", "\u0661")):
        out.append((f"gen edge-polytope/token-{name}",
                    ["gen", "edge-polytope", "--graph", "graph.txt",
                     "--part-a", value], {"graph.txt": path}))
    spec = ('{"kind": "two-sum", "A": [[1]], "B": [[1]], "u": [1], '
            '"v": [1]}')
    out.append(("sum transport/token-f",
                ["sum", "transport", INPUT, "--f", "1_0,0", "--w", "10,10"],
                [spec]))
    out.append(("sum transport/token-w",
                ["sum", "transport", INPUT, "--f", "1,0", "--w", "1,\u0661"],
                [spec]))
    # integer options: argparse's int() would read each of these
    for name, argv in (("gen heller/token-arabic-indic",
                        ["gen", "heller", "--m", "\u0663"]),
                       ("gen simplex-product/token-underscore",
                        ["gen", "simplex-product", "--a", "1_0", "--b", "0"]),
                       ("verify extralemma/token-fullwidth",
                        ["verify", "extralemma", "--max", "\uff13"])):
        out.append((name, argv, {}))


def replay(argv, files, workdir):
    """(stdout, stderr, exit status) of ``tumax argv`` run in ``workdir``
    with the input written there: ``files`` maps file names to lines, or
    is the lines of ``INPUT``. A search report comes back without its
    ``seconds``."""
    if not isinstance(files, dict):
        files = {INPUT: files}
    paths = [Path(workdir, name) for name in files]
    for path, lines in zip(paths, files.values()):
        path.write_text("".join(line + "\n" for line in lines),
                        encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            status = cli.main(argv)
    finally:
        os.chdir(cwd)
        for path in paths:
            path.unlink()
    text = stdout.getvalue()
    if text.startswith("{"):
        report = json.loads(text)
        if "search" in report["result"]:
            del report["result"]["search"]["seconds"]
            text = json.dumps(report, indent=2) + "\n"
    return text, stderr.getvalue(), status


def stored_stdout(text):
    """How ``replay``'s stdout is kept in the corpus: None when empty, the
    parsed report when JSON, else the text itself."""
    if not text:
        return None
    return json.loads(text) if text.startswith("{") else text


def stdout_text(stored):
    """The stdout that ``stored_stdout`` kept as ``stored``, byte for byte."""
    if stored is None:
        return ""
    if isinstance(stored, str):
        return stored
    return json.dumps(stored, indent=2) + "\n"


def main(path=CORPUS):
    entries = []
    with tempfile.TemporaryDirectory() as workdir:
        for name, argv, files in cases():
            stdout, stderr, status = replay(argv, files, workdir)
            entries.append({"name": name, "argv": argv, "input": files,
                            "stdout": stored_stdout(stdout),
                            "stderr": stderr, "exit": status})
    assert len({e["name"] for e in entries}) == len(entries)
    # one line per field, so that a moved output shows as one changed line
    Path(path).write_text("[\n" + ",\n".join(
        "{" + ",\n ".join(f"{json.dumps(k)}: {json.dumps(v)}"
                          for k, v in entry.items()) + "}"
        for entry in entries) + "\n]\n")


if __name__ == "__main__":
    main(*sys.argv[1:])
