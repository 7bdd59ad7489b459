"""Command-line surface tying the modules together.

Commands that produce a matrix artifact (``gen``, ``sum one..delta``,
``network build``) print the matrix text format by default so their
output round-trips byte-identically through the ``check`` commands;
analysis commands print a JSON report. ``--format`` overrides either
default. Exit status: 0 = property holds / success, 1 = property fails,
2 = usage or format error, 3 = budget exceeded. A reader that closes
the output early (``tumax classify --d 2 | head -c 100``) changes none
of these: ``main`` returns the report's own status and prints no error.

Each handler imports the modules it calls, inside the branch that calls
them, so a command loads only what it runs: ``verify polytopal-bound``
never imports ``certify``, ``polytopes`` or ``fractions``.

The grammar is one table, ``_LEAVES``: the arguments of each leaf,
keyed by ``(command, subcommand)`` or ``("classify",)``. A command line
whose first tokens name a leaf is parsed by that leaf's parser alone,
built on first use with the prog the tree gives it (``tumax check tu``);
the namespace gets ``format=None``, ``command`` and ``what`` as
argparse's subparser step would set them. Any other command line, and
one that leaves arguments over after its leaf, goes to the whole
argparse tree, built from the same table: a top-level option given
first, an unknown command, a missing subcommand, ``--help`` at a group.
So every message, help text and exit status is the tree's, and a
request costs one parser instead of three nested ones.
"""

import argparse
import functools
import json
import os
import sys

from ._record import Record
from .errors import BudgetExceeded, FormatError, TumaxError, UsageError
from .matrix import int_arg, int_tokens, parse_matrix_text

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class CommandReport(Record):
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
    from . import graphs
    return graphs.parse_graph_text(_read(path))


def _int_list(flag, text):
    try:
        return int_tokens(text.replace(",", " ").split())
    except ValueError as exc:
        raise UsageError(f"{flag} needs comma-separated integers, "
                         f"got {text!r}") from exc


def _int(text):
    """An integer option, read like the integers of the text formats: any
    token but ASCII ``[+-]?[0-9]+``, such as ``1_0`` or a non-ASCII digit,
    is refused."""
    return int_tokens([text])[0]


# argparse names the type in its error, "invalid int value: 'x'"
_int.__name__ = "int"


class _ArgumentParser(argparse.ArgumentParser):
    """Raises UsageError on a bad command line instead of exiting, so
    ``run`` raises and ``main`` returns 2 like every other usage error.
    Subparsers are built from the same class."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")

    def _check_value(self, action, value):
        # argparse's own invalid-choice text differs between patch
        # releases (3.13.13 stopped quoting the choices); this one is fixed
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {value!r} (choose from {choices})")


def _arg(*names, **kwargs):
    return names, kwargs


_FILE = _arg("file")
_SPEC = _arg("spec", help="SumSpec JSON file")
_M = _arg("--m", type=_int, required=True)
_SEARCH = (_M,
           _arg("--mode", choices=("verify", "fast"), default="verify"),
           _arg("--budget-nodes", type=_int, default=None),
           _arg("--max-m", type=_int, default=None))

# The grammar: the help line of each command, and the arguments of each
# leaf parser, keyed by (command, subcommand) or ("classify",) in the
# order the help lists them. The tree and the leaf parsers are built
# from it.
_COMMAND_HELP = {
    "check": "certify matrix/polytope properties",
    "gen": "generate the explicit matrix families",
    "network": "network matrices and their bounds",
    "sum": "compose TU matrices",
    "verify": "verify the quantitative bounds",
    "classify": "classify unimodular polytopes by dimension",
}
_LEAVES = {
    ("check", "tu"): (
        _FILE, _arg("--method", default="auto",
                    choices=("auto", "minor-enumeration", "minors",
                             "ghouila-houri", "gh"))),
    ("check", "unimodular"): (_FILE,),
    ("check", "polytopal"): (_FILE,),
    ("check", "prepared"): (_FILE,),
    ("check", "unimodular-polytope"): (_FILE,),
    ("gen", "heller"): (_M,),
    ("gen", "bipartite"): (_M,),
    ("gen", "sporadic-5x10"): (),
    ("gen", "sporadic-5x5"): (
        _arg("--variant", type=_int, required=True, choices=(1, 2)),),
    ("gen", "ex4"): (),
    ("gen", "simplex-product"): (_arg("--a", type=_int, required=True),
                                 _arg("--b", type=_int, required=True)),
    ("gen", "edge-polytope"): (
        _arg("--complete", nargs=2, type=_int, metavar=("A", "B"),
             help="use the complete bipartite graph K_{A,B}"),
        _arg("--graph", help="graph file (arcs read as undirected edges)"),
        _arg("--part-a", help="comma-separated vertices of part A")),
    ("network", "build"): (_arg("tree"), _arg("digraph")),
    ("network", "patterns"): (_arg("tree"), _arg("paths")),
    ("network", "bounds"): (_arg("tree"), _arg("digraph")),
    ("sum", "one"): (_SPEC,),
    ("sum", "two"): (_SPEC,),
    ("sum", "three"): (_SPEC,),
    ("sum", "delta"): (_SPEC,),
    ("sum", "transport"): (
        _SPEC, _arg("--f", required=True, help="certificate functional"),
        _arg("--w", required=True, help="target values, one per column")),
    ("verify", "extralemma"): (_arg("--max", type=_int, default=200),),
    ("verify", "polytopal-bound"): _SEARCH,
    ("verify", "heller-bound"): _SEARCH,
    ("verify", "odd-bound"): _SEARCH,
    ("verify", "transpose-bound"): (
        _arg("--samples", type=_int, default=1000),
        _arg("--seed", type=_int, default=0)),
    ("verify", "vertex-bound"): (
        _arg("file", help="points as matrix columns"),),
    ("classify",): (_arg("--d", type=_int, required=True),),
}


def _add_arguments(parser, key):
    for names, kwargs in _LEAVES[key]:
        parser.add_argument(*names, **kwargs)
    return parser


@functools.cache
def _parser():
    """The whole tree: ``tumax [--format F] COMMAND [SUBCOMMAND] ...``."""
    p = _ArgumentParser(prog="tumax",
                        description="exact TU-matrix and unimodular-"
                                    "polytope toolkit")
    p.add_argument("--format", choices=("json", "text"), default=None,
                   help="override the command's default output format")
    sub = p.add_subparsers(dest="command", required=True)
    groups = {}
    for key in _LEAVES:
        command = key[0]
        if len(key) == 1:
            leaf = sub.add_parser(command, help=_COMMAND_HELP[command])
        else:
            if command not in groups:
                groups[command] = sub.add_parser(
                    command, help=_COMMAND_HELP[command]).add_subparsers(
                        dest="what", required=True)
            leaf = groups[command].add_parser(key[1])
        _add_arguments(leaf, key)
    return p


@functools.cache
def _leaf(key):
    """The parser of one leaf alone, with the prog the tree gives it."""
    return _add_arguments(_ArgumentParser(prog=" ".join(("tumax",) + key)),
                          key)


def _parse_args(argv):
    """``_parser().parse_args(argv)``, parsed by the leaf alone when the
    first tokens of ``argv`` name one and the leaf takes all the rest;
    the namespace then gets what argparse's subparser step sets."""
    argv = list(argv)
    if not all(type(arg) is str for arg in argv):
        raise UsageError(f"the command line must be strings, got {argv!r}")
    key = tuple(argv[:1])
    if key not in _LEAVES:
        key = tuple(argv[:2])
    if key in _LEAVES:
        args, rest = _leaf(key).parse_known_args(argv[len(key):])
        if not rest:
            return argparse.Namespace(format=None,
                                      **dict(zip(("command", "what"), key)),
                                      **vars(args))
    return _parser().parse_args(argv)


def _check(args):
    from . import certify
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
             "functional": None if cert is None else list(cert)},
            EXIT_OK if cert is not None else EXIT_FAIL)
    if what == "prepared":
        ok = certify.is_prepared(m)
        return CommandReport("check prepared", {"file": args.file},
                             {"prepared": ok}, EXIT_OK if ok else EXIT_FAIL)
    from . import polytopes
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
    from . import families
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
        from . import polytopes
        m = polytopes.simplex_product(args.a, args.b).to_matrix()
        inputs = {"a": args.a, "b": args.b}
    else:  # edge-polytope
        from . import polytopes
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
            part_a = _int_list("--part-a", args.part_a)
            ps = polytopes.edge_polytope(g.vertices, part_a, list(g.arcs))
            inputs = {"graph": args.graph, "part_a": part_a}
        m = ps.to_matrix()
    text = m.to_text()
    return CommandReport(f"gen {what}", inputs,
                         {"rows": m.rows, "cols": m.cols,
                          "matrix": m.to_lists()},
                         EXIT_OK, artifact_text=text)


def _network(args):
    from . import graphs
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
    from . import sums
    try:
        data = json.loads(_read(args.spec))
    except json.JSONDecodeError as exc:
        raise FormatError(f"SumSpec is not valid JSON: {exc.msg}",
                          line=exc.lineno) from exc
    spec = sums.SumSpec.from_json_dict(data)
    if args.what == "transport":
        transported = sums.transport_functional(
            spec, _int_list("--f", args.f), _int_list("--w", args.w))
        parts = [{"factor": p.factor.to_lists(), "w": list(p.w_part),
                  "functional": list(p.functional)} for p in transported]
        return CommandReport("sum transport", {"spec": args.spec},
                             {"kind": spec.kind, "parts": parts}, EXIT_OK)
    expected_kind = {"one": "one-sum", "two": "two-sum",
                     "three": "three-sum", "delta": "delta-sum"}[args.what]
    if spec.kind != expected_kind:
        raise UsageError(
            f"spec kind {spec.kind!r} does not match subcommand {args.what!r}")
    res = sums.compose(spec)
    m = res.matrix
    result = {"rows": m.rows, "cols": m.cols, "matrix": m.to_lists(),
              "report": {"kind": spec.kind,
                         "two_sum_shaped": res.two_sum_shaped}}
    return CommandReport(f"sum {args.what}", {"spec": args.spec}, result,
                         EXIT_OK, artifact_text=m.to_text())


def _random_tree_arcs(rng, nvertices):
    arcs = []
    for v in range(1, nvertices):
        u = rng.randrange(v)
        arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return arcs


def _verify(args):
    what = args.what
    if what == "extralemma":
        from . import families
        reports = families.verify_extralemma(args.max)
        ok = all(r.match for r in reports)
        return CommandReport("verify extralemma", {"max": args.max},
                             {"parts": [r.to_json_dict() for r in reports],
                              "all_match": ok},
                             EXIT_OK if ok else EXIT_FAIL)
    if what in ("polytopal-bound", "heller-bound", "odd-bound"):
        from . import search
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
        int_arg(args.samples, 0, "--samples must be >= 0")
        import random

        from . import graphs
        rng = random.Random(args.seed)
        violations = 0
        checked = 0
        for _ in range(args.samples):
            # a tree of 2..13 vertices and a digraph of 1..5 arcs on them
            n = rng.randint(2, 13)
            tree = graphs.ArcGraph.from_arcs(n, _random_tree_arcs(rng, n))
            na = rng.randint(1, 5)
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
    from . import polytopes
    m = _load_matrix(args.file)
    ps = polytopes.PointSet.from_matrix_columns(m)
    rep = polytopes.vertex_bound_check(ps)
    return CommandReport("verify vertex-bound", {"file": args.file},
                         rep.to_json_dict(),
                         EXIT_OK if rep.ok else EXIT_FAIL)


def _classify(args):
    from . import polytopes
    res = polytopes.classify_unimodular(args.d)
    return CommandReport("classify", {"d": args.d},
                         {"dimension": args.d, "count": res.count,
                          "classes": res.to_json_list()},
                         EXIT_OK)


def run(argv):
    """Parse and execute; returns a CommandReport (no printing)."""
    return _execute(_parse_args(argv))


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
        args = _parse_args(argv)
        report = _execute(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except TumaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    fmt = args.format or ("text" if report.artifact_text else "json")
    if fmt == "json":
        text = json.dumps(report.to_json_dict(), indent=2) + "\n"
    else:
        text = report.artifact_text or _human_lines(report)
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; the flush at exit would fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return report.exit_status

