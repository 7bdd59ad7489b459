"""Command-line surface tying the modules together.

Commands that produce a matrix artifact (``gen``, ``sum one..delta``,
``network build``) print the matrix text format by default so their
output round-trips byte-identically through the ``check`` commands;
analysis commands print a JSON report. ``--format`` overrides either
default. Exit status: 0 = property holds / success, 1 = property fails,
2 = usage or format error, 3 = budget exceeded.
"""

import argparse
import functools
import json
import random
import sys
from dataclasses import dataclass

from . import certify, families, graphs, polytopes, search, sums
from .errors import BudgetExceeded, FormatError, TumaxError, UsageError
from .matrix import IntMatrix, parse_matrix_text

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


@dataclass
class CommandReport:
    command: str
    inputs: dict
    result: dict
    exit_status: int
    artifact_text: str = ""  # matrix text for artifact-producing commands

    def to_json_dict(self):
        return {"command": self.command, "inputs": self.inputs,
                "result": self.result, "exit_status": self.exit_status}


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc


def _load_matrix(path):
    return parse_matrix_text(_read(path))


def _load_graph(path):
    return graphs.parse_graph_text(_read(path))


def _int_list(text):
    return [int(x) for x in text.replace(",", " ").split()]


@functools.cache
def _parser():
    p = argparse.ArgumentParser(prog="tumax",
                                description="exact TU-matrix and unimodular-"
                                            "polytope toolkit")
    p.add_argument("--format", choices=("json", "text"), default=None,
                   help="override the command's default output format")
    sub = p.add_subparsers(dest="command", required=True)

    chk = sub.add_parser("check", help="certify matrix/polytope properties")
    chk_sub = chk.add_subparsers(dest="what", required=True)
    for name in ("tu", "unimodular", "polytopal", "prepared",
                 "unimodular-polytope"):
        c = chk_sub.add_parser(name)
        c.add_argument("file")
        if name == "tu":
            c.add_argument("--method", default="auto",
                           choices=("auto", "minor-enumeration", "minors",
                                    "ghouila-houri", "gh"))

    gen = sub.add_parser("gen", help="generate the explicit matrix families")
    gen_sub = gen.add_subparsers(dest="what", required=True)
    g = gen_sub.add_parser("heller")
    g.add_argument("--m", type=int, required=True)
    g = gen_sub.add_parser("bipartite")
    g.add_argument("--m", type=int, required=True)
    gen_sub.add_parser("sporadic-5x10")
    g = gen_sub.add_parser("sporadic-5x5")
    g.add_argument("--variant", type=int, required=True, choices=(1, 2))
    gen_sub.add_parser("ex4")
    g = gen_sub.add_parser("simplex-product")
    g.add_argument("--a", type=int, required=True)
    g.add_argument("--b", type=int, required=True)
    g = gen_sub.add_parser("edge-polytope")
    g.add_argument("--complete", nargs=2, type=int, metavar=("A", "B"),
                   help="use the complete bipartite graph K_{A,B}")
    g.add_argument("--graph", help="graph file (arcs read as undirected edges)")
    g.add_argument("--part-a", help="comma-separated vertices of part A")

    net = sub.add_parser("network", help="network matrices and their bounds")
    net_sub = net.add_subparsers(dest="what", required=True)
    n = net_sub.add_parser("build")
    n.add_argument("tree")
    n.add_argument("digraph")
    n = net_sub.add_parser("patterns")
    n.add_argument("tree")
    n.add_argument("paths")
    n = net_sub.add_parser("bounds")
    n.add_argument("tree")
    n.add_argument("digraph")

    sm = sub.add_parser("sum", help="compose TU matrices")
    sm_sub = sm.add_subparsers(dest="what", required=True)
    for name in ("one", "two", "three", "delta"):
        s = sm_sub.add_parser(name)
        s.add_argument("spec", help="SumSpec JSON file")
    s = sm_sub.add_parser("transport")
    s.add_argument("spec", help="SumSpec JSON file")
    s.add_argument("--f", required=True, help="certificate functional")
    s.add_argument("--w", required=True, help="target values, one per column")

    ver = sub.add_parser("verify", help="verify the quantitative bounds")
    ver_sub = ver.add_subparsers(dest="what", required=True)
    v = ver_sub.add_parser("extralemma")
    v.add_argument("--max", type=int, default=200)
    for name in ("polytopal-bound", "heller-bound", "odd-bound"):
        v = ver_sub.add_parser(name)
        v.add_argument("--m", type=int, required=True)
        v.add_argument("--mode", choices=("verify", "fast"), default="verify")
        v.add_argument("--budget-nodes", type=int, default=None)
        v.add_argument("--max-m", type=int, default=None)
    v = ver_sub.add_parser("transpose-bound")
    v.add_argument("--samples", type=int, default=1000)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--max-tree-edges", type=int, default=12)
    v.add_argument("--max-arcs", type=int, default=5)
    v = ver_sub.add_parser("vertex-bound")
    v.add_argument("file", help="points as matrix columns")

    cl = sub.add_parser("classify",
                        help="classify unimodular polytopes by dimension")
    cl.add_argument("--d", type=int, required=True)
    cl.add_argument("--stretch", action="store_true")
    cl.add_argument("--unpruned", action="store_true")
    return p


def _check(args):
    m = _load_matrix(args.file)
    what = args.what
    if what == "tu":
        verdict = certify.is_totally_unimodular(m, args.method)
        return CommandReport(
            "check tu", {"file": args.file, "method": args.method},
            verdict.to_json_dict(),
            EXIT_OK if verdict.is_tu else EXIT_FAIL)
    if what == "unimodular":
        ok = certify.is_unimodular(m)
        return CommandReport("check unimodular", {"file": args.file},
                             {"is_unimodular": ok},
                             EXIT_OK if ok else EXIT_FAIL)
    if what == "polytopal":
        cert = certify.polytopal_certificate(m)
        return CommandReport(
            "check polytopal", {"file": args.file},
            {"polytopal": cert is not None,
             "functional": list(cert.coeffs) if cert else None},
            EXIT_OK if cert is not None else EXIT_FAIL)
    if what == "prepared":
        ok = certify.is_prepared(m)
        return CommandReport("check prepared", {"file": args.file},
                             {"prepared": ok}, EXIT_OK if ok else EXIT_FAIL)
    ps = polytopes.PointSet.from_matrix_columns(m)
    embedded = polytopes.affine_lattice_coordinates(ps)
    verdict = polytopes.is_unimodular_polytope(embedded)
    result = {"is_unimodular_polytope": verdict.is_unimodular,
              "dimension": embedded.dim,
              "vertex_count": len(embedded.points),
              "witness": (None if verdict.witness is None else
                          {"points": list(verdict.witness[0]),
                           "determinant": verdict.witness[1]})}
    return CommandReport("check unimodular-polytope", {"file": args.file},
                         result, EXIT_OK if verdict.is_unimodular else EXIT_FAIL)


def _gen(args):
    what = args.what
    inputs = {}
    if what == "heller":
        m = families.heller_family(args.m)
        inputs = {"m": args.m}
    elif what == "bipartite":
        m = families.bipartite_extremal(args.m)
        inputs = {"m": args.m}
    elif what == "sporadic-5x10":
        m = families.sporadic_5x10()
    elif what == "sporadic-5x5":
        m = families.sporadic_5x5(args.variant)
        inputs = {"variant": args.variant}
    elif what == "ex4":
        m = families.ex4_matrix()
    elif what == "simplex-product":
        m = polytopes.simplex_product(args.a, args.b).to_matrix()
        inputs = {"a": args.a, "b": args.b}
    else:  # edge-polytope
        if args.complete:
            na, nb = args.complete
            ps = polytopes.edge_polytope(
                na + nb, range(na), polytopes.complete_bipartite_edges(na, nb))
            inputs = {"complete": [na, nb]}
        else:
            if not args.graph or args.part_a is None:
                raise UsageError("edge-polytope needs --complete A B or "
                                 "--graph FILE with --part-a")
            g = _load_graph(args.graph)
            part_a = _int_list(args.part_a)
            ps = polytopes.edge_polytope(g.vertices, part_a, list(g.arcs))
            inputs = {"graph": args.graph, "part_a": part_a}
        m = ps.to_matrix()
    text = m.to_text()
    return CommandReport(f"gen {what}", inputs,
                         {"rows": m.rows, "cols": m.cols,
                          "matrix": m.to_lists()},
                         EXIT_OK, artifact_text=text)


def _network(args):
    tree = _load_graph(args.tree)
    if args.what == "patterns":
        paths = graphs.parse_paths_text(_read(args.paths))
        rep = graphs.verify_pattern_bounds(tree, paths)
        ok = rep.bound_ok in (True, None) and rep.odd_bound_ok in (True, None)
        return CommandReport("network patterns",
                             {"tree": args.tree, "paths": args.paths},
                             rep.to_json_dict(),
                             EXIT_OK if ok else EXIT_FAIL)
    digraph = _load_graph(args.digraph)
    if args.what == "build":
        m = graphs.network_matrix(tree, digraph)
        return CommandReport("network build",
                             {"tree": args.tree, "digraph": args.digraph},
                             {"rows": m.rows, "cols": m.cols,
                              "matrix": m.to_lists()},
                             EXIT_OK, artifact_text=m.to_text())
    col = graphs.verify_network_column_bound(tree, digraph)
    rowrep = graphs.verify_transpose_row_bound(
        graphs.network_matrix(tree, digraph))
    checks = [col.ok, rowrep.pos_ok, rowrep.odd_ok]
    ok = all(c in (True, None) for c in checks)
    return CommandReport("network bounds",
                         {"tree": args.tree, "digraph": args.digraph},
                         {"column_bound": col.to_json_dict(),
                          "transpose_rows": rowrep.to_json_dict()},
                         EXIT_OK if ok else EXIT_FAIL)


def _sum(args):
    try:
        data = json.loads(_read(args.spec))
    except json.JSONDecodeError as exc:
        raise FormatError(f"SumSpec is not valid JSON: {exc.msg}",
                          line=exc.lineno) from exc
    spec = sums.SumSpec.from_json_dict(data)
    if args.what == "transport":
        res = sums.transport_functional(spec, tuple(_int_list(args.f)),
                                        tuple(_int_list(args.w)))
        parts = [{"factor": p.factor.to_lists(),
                  "w": list(p.w_part),
                  "functional": list(p.functional.coeffs)}
                 for p in res.parts]
        return CommandReport("sum transport", {"spec": args.spec},
                             {"kind": res.kind, "parts": parts}, EXIT_OK)
    expected_kind = {"one": "one-sum", "two": "two-sum",
                     "three": "three-sum", "delta": "delta-sum"}[args.what]
    if spec.kind != expected_kind:
        raise UsageError(
            f"spec kind {spec.kind!r} does not match subcommand {args.what!r}")
    res = sums.compose(spec)
    m = res.matrix
    result = {"rows": m.rows, "cols": m.cols, "matrix": m.to_lists(),
              "report": {"kind": res.report.kind,
                         "two_sum_shaped": res.report.two_sum_shaped}}
    return CommandReport(f"sum {args.what}", {"spec": args.spec}, result,
                         EXIT_OK, artifact_text=m.to_text())


def _random_tree_arcs(rng, nvertices):
    if nvertices <= 1:
        return []
    arcs = []
    for v in range(1, nvertices):
        u = rng.randrange(v)
        arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return arcs


def _verify(args):
    what = args.what
    if what == "extralemma":
        reports = families.verify_extralemma(args.max)
        ok = all(r.match for r in reports)
        return CommandReport("verify extralemma", {"max": args.max},
                             {"parts": [r.to_json_dict() for r in reports],
                              "all_match": ok},
                             EXIT_OK if ok else EXIT_FAIL)
    if what in ("polytopal-bound", "heller-bound", "odd-bound"):
        runner = {"polytopal-bound": search.max_polytopal_tu_columns,
                  "heller-bound": search.max_tu_columns,
                  "odd-bound": search.max_odd_sum_tu_columns}[what]
        res = runner(args.m, mode=args.mode, node_budget=args.budget_nodes,
                     max_m=args.max_m)
        payload = {"search": res.to_json_dict(), "expected": res.expected,
                   "matches_expected": res.matches_expected}
        if not res.complete:
            status = EXIT_BUDGET
        elif res.matches_expected is False:
            status = EXIT_FAIL
        else:
            status = EXIT_OK
        return CommandReport(f"verify {what}",
                             {"m": args.m, "mode": args.mode},
                             payload, status)
    if what == "transpose-bound":
        if args.samples < 0:
            raise UsageError("--samples must be >= 0")
        if args.max_tree_edges < 1 or args.max_arcs < 1:
            raise UsageError("--max-tree-edges and --max-arcs must be >= 1")
        rng = random.Random(args.seed)
        violations = 0
        checked = 0
        for _ in range(args.samples):
            n = rng.randint(2, args.max_tree_edges + 1)
            tree = graphs.ArcGraph.from_arcs(n, _random_tree_arcs(rng, n))
            na = rng.randint(1, args.max_arcs)
            d = graphs.ArcGraph.from_arcs(
                n, [(rng.randrange(n), rng.randrange(n)) for _ in range(na)])
            rep = graphs.verify_transpose_row_bound(
                graphs.network_matrix(tree, d))
            checked += 1
            if rep.pos_ok is False or rep.odd_ok is False:
                violations += 1
        return CommandReport("verify transpose-bound",
                             {"samples": args.samples, "seed": args.seed},
                             {"checked": checked, "violations": violations},
                             EXIT_OK if violations == 0 else EXIT_FAIL)
    # vertex-bound
    m = _load_matrix(args.file)
    ps = polytopes.PointSet.from_matrix_columns(m)
    rep = polytopes.vertex_bound_check(ps)
    return CommandReport("verify vertex-bound", {"file": args.file},
                         rep.to_json_dict(),
                         EXIT_OK if rep.ok else EXIT_FAIL)


def _classify(args):
    res = polytopes.classify_unimodular(args.d, pruned=not args.unpruned,
                                        stretch=args.stretch)
    return CommandReport("classify", {"d": args.d},
                         {"dimension": args.d, "count": res.count,
                          "classes": res.to_json_list()},
                         EXIT_OK)


def run(argv):
    """Parse and execute; returns a CommandReport (no printing)."""
    return _execute(_parser().parse_args(argv))


def _execute(args):
    if args.command == "check":
        return _check(args)
    if args.command == "gen":
        return _gen(args)
    if args.command == "network":
        return _network(args)
    if args.command == "sum":
        return _sum(args)
    if args.command == "verify":
        return _verify(args)
    return _classify(args)


def _human_lines(report):
    lines = [f"{report.command}: exit {report.exit_status}"]
    for key, value in report.result.items():
        lines.append(f"  {key}: {value}")
    return "\n".join(lines) + "\n"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parser().parse_args(argv)
        report = _execute(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except TumaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    fmt = args.format or ("text" if report.artifact_text else "json")
    if fmt == "json":
        print(json.dumps(report.to_json_dict(), indent=2))
    elif report.artifact_text:
        sys.stdout.write(report.artifact_text)
    else:
        sys.stdout.write(_human_lines(report))
    return report.exit_status


if __name__ == "__main__":
    sys.exit(main())
