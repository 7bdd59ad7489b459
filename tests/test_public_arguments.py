"""Every public callable of ``src/tumax`` reads its arguments as the types
it documents.

One table row per callable names a valid call and the kind of each
parameter. Each int parameter is then given 2.5, True, "3" and None (None
only where it is not the default), each sequence parameter a float
entry, a ragged row and an iterator, and each matrix parameter a list of
rows. Every such call must raise a ``TumaxError`` subclass, or answer
exactly as the valid call does. A parameter that is not probed says why,
and the table is checked complete against the module-level and class-level
definitions of the AST walk of ``test_uncalled_names``.
"""

import ast
import inspect

import pytest

from tumax import (certify, cli, families, graphs, kernels, linsolve, lp,
                   matrix, polytopes, search, sums)
from tumax.errors import TumaxError
from tumax.matrix import IntMatrix

from test_uncalled_names import ROOT, _definitions, _trees

# parameter kinds
INT = "int"  # 2.5, True, "3", None
INT_OR_NONE = "int or None"  # 2.5, True, "3"; None is the default
INTS = "int sequence"  # a float entry and an iterator
ROWS = "sequence of int sequences"  # a float entry, a ragged row, an iterator
OUTER = "sequence read one level deep"  # an iterator
STRS = "sequence of strings"  # a float entry and an iterator
MATRIX = "IntMatrix"  # its list of rows

# reasons for a parameter that is not probed
TEXT = "a str, read by the callable's own parser"
NAME = "a name or a message that library code passes"
BOUND = "a bound that library code passes"
CHOICE = "a str choice, refused with UsageError outside its choices"
OBJECT = "a library value (PointSet, ArcGraph, SumSpec), built by its reader"
OWN_OUTPUT = "the output of another tumax call, passed back unchanged"
HOT_ROWS = ("rows of a hot kernel: its callers build them from read input, "
            "so a check per call would cost the hot loop")
PERMS = "index permutations that the library builds"

TREE = graphs.ArcGraph.from_arcs(3, [(0, 1), (1, 2)])
DIGRAPH = graphs.ArcGraph.from_arcs(3, [(0, 2), (2, 1)])
I2 = IntMatrix.identity(2)
NETWORK = IntMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
TWO_SUM = sums.SumSpec("two-sum", IntMatrix.identity(1), IntMatrix.identity(1),
                       u=(1,), v=(1,))


def _search_view(res):
    # the answer of a search, without its wall-clock time
    return (res.m, res.max_columns, res.witness, res.nodes, res.complete)


def _row(name, call, args, kinds, view=repr, refusal=None):
    """``refusal`` is the answer by which a callable that raises nothing
    refuses its arguments."""
    return {"name": name, "call": call, "args": args, "kinds": kinds,
            "view": view, "refusal": refusal}


TABLE = [
    # certify
    _row("certify.apply_functional", certify.apply_functional,
         {"f": (1, 1), "m": NETWORK}, {"f": INTS, "m": MATRIX}),
    _row("certify.is_totally_unimodular", certify.is_totally_unimodular,
         {"m": NETWORK, "method": "auto"}, {"m": MATRIX, "method": CHOICE}),
    _row("certify.ghouila_houri_check", certify.ghouila_houri_check,
         {"m": NETWORK}, {"m": MATRIX}),
    _row("certify.is_unimodular", certify.is_unimodular,
         {"m": NETWORK}, {"m": MATRIX}),
    _row("certify.polytopal_certificate", certify.polytopal_certificate,
         {"m": I2}, {"m": MATRIX}),
    _row("certify.is_prepared", certify.is_prepared,
         {"m": I2}, {"m": MATRIX}),
    # cli
    _row("cli.run", cli.run,
         {"argv": ["gen", "sporadic-5x5", "--variant", "2"]}, {"argv": STRS}),
    _row("cli.main", cli.main,
         {"argv": ["gen", "sporadic-5x5", "--variant", "2"]}, {"argv": STRS},
         refusal=cli.EXIT_USAGE),
    # families
    _row("families.h", families.h, {"x": 3}, {"x": INT}),
    _row("families.verify_extralemma", families.verify_extralemma,
         {"maximum": 10}, {"maximum": INT}),
    _row("families.heller_family", families.heller_family,
         {"m": 3}, {"m": INT}),
    _row("families.bipartite_extremal", families.bipartite_extremal,
         {"m": 3}, {"m": INT}),
    _row("families.sporadic_5x5", families.sporadic_5x5,
         {"variant": 2}, {"variant": INT}),
    _row("families.is_sporadic", families.is_sporadic,
         {"m": families.sporadic_5x5(2)}, {"m": MATRIX}),
    # graphs
    _row("graphs.ArcGraph.from_arcs", graphs.ArcGraph.from_arcs,
         {"vertices": 3, "arcs": [(0, 1), (1, 2)]},
         {"vertices": INT, "arcs": ROWS}),
    _row("graphs.parse_graph_text", graphs.parse_graph_text,
         {"text": "2 1\n0 1\n"}, {"text": TEXT}),
    _row("graphs.parse_paths_text", graphs.parse_paths_text,
         {"text": "0 1\n"}, {"text": TEXT}),
    _row("graphs.network_matrix", graphs.network_matrix,
         {"tree": TREE, "digraph": DIGRAPH},
         {"tree": OBJECT, "digraph": OBJECT}),
    _row("graphs.transpose_extension", graphs.transpose_extension,
         {"mprime": graphs.network_matrix(TREE, DIGRAPH).transpose(),
          "tree": TREE, "digraph": DIGRAPH},
         {"mprime": MATRIX, "tree": OBJECT, "digraph": OBJECT}),
    _row("graphs.edge_patterns", graphs.edge_patterns,
         {"tree": TREE, "paths": [(0, 2), (1, 2)]},
         {"tree": OBJECT, "paths": ROWS}),
    _row("graphs.verify_pattern_bounds", graphs.verify_pattern_bounds,
         {"tree": TREE, "paths": [(0, 2), (1, 2)]},
         {"tree": OBJECT, "paths": ROWS}),
    _row("graphs.verify_network_column_bound",
         graphs.verify_network_column_bound,
         {"tree": TREE, "digraph": DIGRAPH},
         {"tree": OBJECT, "digraph": OBJECT}),
    _row("graphs.verify_transpose_row_bound",
         graphs.verify_transpose_row_bound,
         {"m": NETWORK}, {"m": MATRIX}),
    # kernels
    _row("_pykernels.det_entries", kernels.det_entries,
         {"rows": ((1, 1), (1, -1))}, {"rows": HOT_ROWS}),
    _row("_pykernels.rank_entries", kernels.rank_entries,
         {"rows": ((1, 1), (1, -1))}, {"rows": HOT_ROWS}),
    _row("_pykernels.tu_violation", kernels.tu_violation,
         {"rows": ((1, 1), (1, -1))}, {"rows": HOT_ROWS}),
    _row("_pykernels.unimodular_violation", kernels.unimodular_violation,
         {"points": ((0, 0), (2, 0), (0, 1))}, {"points": HOT_ROWS}),
    _row("_pykernels.max_tu_subset", kernels.max_tu_subset,
         {"cands": search.candidate_columns(2, "heller"), "perms": None,
          "stop_at": 5, "node_budget": 30},
         {"cands": HOT_ROWS, "perms": PERMS, "stop_at": INT,
          "node_budget": INT}),
    _row("_pykernels.canonical_masks", kernels.canonical_masks,
         {"npoints": 4, "perms": [[1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]],
          "min_size": 2, "max_size": 3},
         {"npoints": INT, "perms": PERMS, "min_size": INT, "max_size": INT}),
    # linsolve
    _row("linsolve.row_hnf", linsolve.row_hnf, {"m": NETWORK}, {"m": MATRIX}),
    _row("linsolve.hnf_solver", linsolve.hnf_solver,
         dict(zip(("h", "u", "pivots"), linsolve.row_hnf(NETWORK))),
         {"h": MATRIX, "u": MATRIX, "pivots": OWN_OUTPUT},
         view=lambda solve: solve((1, 1, 2))),
    _row("linsolve.solve_left_integer", linsolve.solve_left_integer,
         {"m": NETWORK, "w": (1, 1, 2)}, {"m": MATRIX, "w": INTS}),
    _row("linsolve.invert_unimodular", linsolve.invert_unimodular,
         {"m": IntMatrix.from_rows([[2, 1], [1, 1]])}, {"m": MATRIX}),
    # lp
    _row("lp.feasible_nonneg", lp.feasible_nonneg,
         {"a_rows": [[1, 2], [1, 1]], "b": [3, 2]},
         {"a_rows": ROWS, "b": INTS}),
    _row("lp.in_convex_hull", lp.in_convex_hull,
         {"point": (1, 0), "points": [(0, 0), (2, 0), (0, 2)]},
         {"point": INTS, "points": ROWS}),
    # matrix
    _row("matrix.int_tokens", matrix.int_tokens,
         {"tokens": ["1", "-2"]}, {"tokens": STRS}),
    _row("matrix.as_index_set", matrix.as_index_set,
         {"indices": [0, 2], "size": 3, "what": "row"},
         {"indices": INTS, "size": BOUND, "what": NAME}),
    _row("matrix.int_vector", matrix.int_vector,
         {"values": [3, -1], "name": "v"}, {"values": INTS, "name": NAME}),
    _row("matrix.int_arg", matrix.int_arg,
         {"value": 3, "low": 0, "message": "no", "high": None},
         {"value": INT, "low": BOUND, "message": NAME, "high": BOUND}),
    _row("matrix.pair_list", matrix.pair_list,
         {"values": [(0, 1)], "name": "arcs"},
         {"values": OUTER, "name": NAME}),
    _row("matrix.int_pair", matrix.int_pair,
         {"values": (0, 2), "name": "arc"}, {"values": INTS, "name": NAME}),
    _row("matrix.matrix_arg", matrix.matrix_arg,
         {"m": I2, "name": "m"}, {"m": MATRIX, "name": NAME}),
    _row("matrix.IntMatrix.from_rows", IntMatrix.from_rows,
         {"rows_data": [[1, 0], [2, 3]]}, {"rows_data": ROWS}),
    _row("matrix.IntMatrix.from_columns", IntMatrix.from_columns,
         {"cols_data": [[1, 0], [2, 3]], "rows": 2},
         {"cols_data": ROWS, "rows": INT_OR_NONE}),
    _row("matrix.IntMatrix.identity", IntMatrix.identity,
         {"n": 3}, {"n": INT}),
    _row("matrix.IntMatrix.zeros", IntMatrix.zeros,
         {"rows": 2, "cols": 3}, {"rows": INT, "cols": INT}),
    _row("matrix.IntMatrix.row", NETWORK.row, {"i": 1}, {"i": INT}),
    _row("matrix.IntMatrix.col", NETWORK.col, {"j": 2}, {"j": INT}),
    _row("matrix.IntMatrix.submatrix", NETWORK.submatrix,
         {"row_idx": [0, 1], "col_idx": [0, 2]},
         {"row_idx": INTS, "col_idx": INTS}),
    _row("matrix.IntMatrix.hstack", I2.hstack, {"other": NETWORK},
         {"other": MATRIX}),
    _row("matrix.IntMatrix.vstack", NETWORK.vstack, {"other": NETWORK},
         {"other": MATRIX}),
    _row("matrix.parse_matrix_text", matrix.parse_matrix_text,
         {"text": "1 2\n3 4\n"}, {"text": TEXT}),
    # polytopes
    _row("polytopes.PointSet.from_points", polytopes.PointSet.from_points,
         {"points": [(0, 0), (1, 0), (0, 2)]}, {"points": ROWS}),
    _row("polytopes.PointSet.from_matrix_columns",
         polytopes.PointSet.from_matrix_columns,
         {"m": NETWORK}, {"m": MATRIX}),
    _row("polytopes.vertex_hull", polytopes.vertex_hull,
         {"ps": polytopes.simplex_product(1, 1)}, {"ps": OBJECT}),
    _row("polytopes.is_unimodular_polytope", polytopes.is_unimodular_polytope,
         {"ps": polytopes.simplex_product(1, 1)}, {"ps": OBJECT}),
    _row("polytopes.edge_polytope", polytopes.edge_polytope,
         {"nvertices": 4, "part_a": [0, 1], "edges": [(0, 2), (1, 3), (0, 3)]},
         {"nvertices": INT, "part_a": INTS, "edges": ROWS}),
    _row("polytopes.complete_bipartite_edges",
         polytopes.complete_bipartite_edges,
         {"na": 2, "nb": 3}, {"na": INT, "nb": INT}),
    _row("polytopes.simplex_product", polytopes.simplex_product,
         {"a": 2, "b": 3}, {"a": INT, "b": INT}),
    _row("polytopes.affine_lattice_coordinates",
         polytopes.affine_lattice_coordinates,
         {"ps": polytopes.simplex_product(1, 1)}, {"ps": OBJECT}),
    _row("polytopes.lattice_isomorphic", polytopes.lattice_isomorphic,
         {"p": polytopes.simplex_product(1, 1),
          "q": polytopes.simplex_product(1, 1)},
         {"p": OBJECT, "q": OBJECT}),
    _row("polytopes.fingerprint", polytopes.fingerprint,
         {"ps": polytopes.simplex_product(1, 1)}, {"ps": OBJECT}),
    _row("polytopes.fingerprint_string", polytopes.fingerprint_string,
         {"fp": polytopes.fingerprint(polytopes.simplex_product(1, 1))},
         {"fp": OWN_OUTPUT}),
    _row("polytopes.classify_unimodular", polytopes.classify_unimodular,
         {"d": 2}, {"d": INT}),
    _row("polytopes.vertex_bound_check", polytopes.vertex_bound_check,
         {"ps": polytopes.simplex_product(1, 1)}, {"ps": OBJECT}),
    _row("polytopes.normalize_standard_form",
         polytopes.normalize_standard_form,
         {"m": IntMatrix.from_rows([[1, 0, 1], [0, 1, 0]])}, {"m": MATRIX}),
    # search
    _row("search.candidate_columns", search.candidate_columns,
         {"m": 2, "mode": "odd-sums"}, {"m": INT, "mode": CHOICE}),
    *[_row(f"search.{fn.__name__}", fn,
           {"m": 3, "mode": "verify", "node_budget": 40, "max_m": 4},
           {"m": INT, "mode": CHOICE, "node_budget": INT_OR_NONE,
            "max_m": INT_OR_NONE}, view=_search_view)
      for fn in (search.max_polytopal_tu_columns, search.max_tu_columns,
                 search.max_odd_sum_tu_columns)],
    # sums
    _row("sums.SumSpec.from_json_dict", sums.SumSpec.from_json_dict,
         {"data": TWO_SUM.to_json_dict()},
         {"data": "a decoded JSON object, refused with FormatError unless "
                  "its entries are ints (tests/test_sums.py)"}),
    _row("sums.first_factor", sums.first_factor,
         {"spec": TWO_SUM}, {"spec": OBJECT}),
    _row("sums.second_factor", sums.second_factor,
         {"spec": TWO_SUM}, {"spec": OBJECT}),
    _row("sums.compose", sums.compose, {"spec": TWO_SUM}, {"spec": OBJECT}),
    _row("sums.transport_functional", sums.transport_functional,
         {"spec": TWO_SUM, "f": (1, 0), "w": (1, 1)},
         {"spec": OBJECT, "f": INTS, "w": INTS}),
]

# public callables with parameters that the table leaves out, and why
RECORD = "a result record, built by the library from values it computed"
UNREAD = ("the plain constructor, which stores its fields unread; the "
          "from_* readers take outside input")
NOT_IN_TABLE = {
    **{f"errors.{name}": "an exception class"
       for name in ("TumaxError", "UsageError", "FormatError",
                    "BudgetExceeded", "PreconditionError")},
    "_record.Record": "the base of the records below",
    "matrix.IntMatrix": UNREAD,
    "polytopes.PointSet": UNREAD,
    "graphs.ArcGraph": UNREAD,
    "sums.SumSpec": UNREAD + " (compose and transport read its fields)",
    **{name: RECORD for name in (
        "certify.TuVerdict", "cli.CommandReport", "families.BoundReport",
        "graphs.TransposeExtension", "graphs.PatternReport",
        "graphs.NetworkColumnReport", "graphs.TransposeRowReport",
        "polytopes.HullResult", "polytopes.UnimodularityVerdict",
        "polytopes.PolytopeClass", "polytopes.ClassificationResult",
        "polytopes.VertexBoundReport", "polytopes.NormalizeResult",
        "search.SearchResult", "sums.ComposeResult",
        "sums.TransportedFactor")},
}


def _public_definitions():
    """(qualified name, takes arguments) for every public function and
    class of a module of src/tumax, and every public method of its
    public classes; a method's ``self`` is no argument."""
    out = {}
    for module, tree in _trees(ROOT / "src" / "tumax").items():
        bare = set(_definitions(module, tree))
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            if isinstance(node, ast.FunctionDef):
                assert node.name in bare
                out[f"{module}.{node.name}"] = bool(node.args.args)
            elif isinstance(node, ast.ClassDef):
                out[f"{module}.{node.name}"] = True
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and item.name in bare
                            and not item.name.startswith("_")):
                        static = any(getattr(d, "id", None) == "staticmethod"
                                     for d in item.decorator_list)
                        out[f"{module}.{node.name}.{item.name}"] = (
                            len(item.args.args) > (0 if static else 1))
    return out


def test_the_table_covers_every_public_callable():
    wanted = {name for name, takes in _public_definitions().items() if takes}
    listed = [row["name"] for row in TABLE]
    assert len(set(listed)) == len(listed)
    assert set(listed).isdisjoint(NOT_IN_TABLE)
    assert wanted == set(listed) | set(NOT_IN_TABLE)


@pytest.mark.parametrize("row", TABLE, ids=[row["name"] for row in TABLE])
def test_every_parameter_has_a_kind(row):
    params = list(inspect.signature(row["call"]).parameters)
    assert params == list(row["args"]) == list(row["kinds"])


def _first_int_to_float(value):
    """``value`` with its first int entry, at any depth, as a float."""
    done = []

    def walk(v):
        if type(v) is int and not done:
            done.append(True)
            return float(v)
        if isinstance(v, (list, tuple)):
            return [walk(x) for x in v]
        return v

    out = walk(value)
    assert done, value
    return out


def _probes(value, kind):
    if kind == INT:
        return [2.5, True, "3", None]
    if kind == INT_OR_NONE:
        return [2.5, True, "3"]
    if kind == INTS:
        return [_first_int_to_float(value), iter(value)]
    if kind == ROWS:
        ragged = [list(value[0]) + [0]] + [list(r) for r in value[1:]]
        return [_first_int_to_float(value), ragged, iter(value)]
    if kind == OUTER:
        return [iter(value)]
    if kind == STRS:
        return [[1.5] + list(value[1:]), iter(value)]
    if kind == MATRIX:
        return [value.to_lists()]
    return []


def _cases():
    for row in TABLE:
        for param, kind in row["kinds"].items():
            for k, probe in enumerate(_probes(row["args"][param], kind)):
                yield pytest.param(row, param, probe,
                                   id=f"{row['name']}-{param}-{k}")


@pytest.mark.parametrize("row, param, probe", list(_cases()))
def test_a_wrong_argument_raises_a_library_error_or_answers_alike(
        row, param, probe, capsys):
    expected = row["view"](row["call"](**row["args"]))
    args = dict(row["args"], **{param: probe})
    try:
        answer = row["call"](**args)
    except TumaxError:
        return
    finally:
        capsys.readouterr()
    if row["refusal"] is None or answer != row["refusal"]:
        assert row["view"](answer) == expected
