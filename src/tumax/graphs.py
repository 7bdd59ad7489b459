"""Network matrices from trees and digraphs, the pendant-arc transpose
extension, and path-pattern analysis on trees.

Arc order is significant everywhere: tree arcs fix the row order of a
network matrix and digraph arcs fix its column order.

Every tree computation walks one rooted orientation, whose DFS is also the
tree test: network-matrix columns and path patterns come from one signed
walk up it from the two ends of a path.
"""

from functools import cached_property
from typing import Optional

from ._record import Record
from .errors import FormatError, PreconditionError, UsageError
from .matrix import (IntMatrix, int_arg, int_pair, int_tokens, matrix_arg,
                     pair_list)


class ArcGraph(Record):
    """Vertex count plus an ordered arc list (tail, head)."""

    vertices: int
    arcs: tuple

    @staticmethod
    def from_arcs(vertices, arcs):
        arcs = tuple(int_pair(arc, "arc") for arc in pair_list(arcs, "arcs"))
        int_arg(vertices, 0, f"vertex count must be a nonnegative integer, "
                f"got {vertices!r}")
        for a, b in arcs:
            if not (0 <= a < vertices and 0 <= b < vertices):
                raise UsageError(f"arc ({a},{b}) references unknown vertex")
        return ArcGraph(vertices, arcs)

    def is_tree(self):
        """Underlying undirected graph is a tree spanning all vertices."""
        return self._rooted is not None

    # the instance is immutable, so its orientation is kept once computed
    @cached_property
    def _rooted(self):
        return _rooted_orientation(self)


def parse_graph_text(text):
    """Parse the graph text format: `vertices arcs` then `tail head` lines."""
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty input, expected header `vertices arcs`", line=1)
    header = lines[0].split()
    if len(header) != 2:
        raise FormatError("header must be `vertices arcs`", line=1)
    try:
        nv, na = int_tokens(header)
    except ValueError:
        raise FormatError("header must contain two integers", line=1)
    if nv < 0 or na < 0:
        raise FormatError("negative vertex or arc count", line=1)
    arcs = []
    for i in range(na):
        lineno = i + 2
        if i + 1 >= len(lines):
            raise FormatError(f"expected {na} arcs, found {i}", line=lineno)
        parts = lines[i + 1].split()
        if len(parts) != 2:
            raise FormatError("arc line must be `tail head`", line=lineno)
        try:
            arcs.append(tuple(int_tokens(parts)))
        except ValueError:
            raise FormatError("non-integer vertex", line=lineno)
    for extra in range(na + 1, len(lines)):
        if lines[extra].strip():
            raise FormatError("trailing content after arcs", line=extra + 1)
    try:
        return ArcGraph.from_arcs(nv, arcs)
    except UsageError as exc:
        raise FormatError(str(exc))


def parse_paths_text(text):
    """One `endpoint endpoint` pair per line."""
    paths = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError("path line must be `endpoint endpoint`", line=lineno)
        try:
            paths.append(tuple(int_tokens(parts)))
        except ValueError:
            raise FormatError("non-integer endpoint", line=lineno)
    return paths


def _rooted_orientation(graph):
    """Parent pointers and parent-arc signs of the graph as a tree rooted at
    vertex 0, or None when it is no tree spanning all its vertices.

    psign[v] is +1 when the tree arc between v and parent[v] is directed
    v -> parent[v] (so walking up crosses it forwards).
    """
    n = graph.vertices
    if len(graph.arcs) != n - 1:
        return None
    adj = [[] for _ in range(n)]
    for idx, (a, b) in enumerate(graph.arcs):
        adj[a].append((b, idx, 1))
        adj[b].append((a, idx, -1))
    parent = [-1] * n
    parc = [-1] * n
    psign = [0] * n
    depth = [0] * n
    seen = [False] * n
    seen[0] = True
    stack = [0]
    reached = 1
    while stack:
        v = stack.pop()
        for (w, idx, sign) in adj[v]:
            if not seen[w]:
                seen[w] = True
                reached += 1
                parent[w] = v
                parc[w] = idx
                # ``sign`` is for crossing v -> w; walking up is opposite
                psign[w] = -sign
                depth[w] = depth[v] + 1
                stack.append(w)
    # n - 1 arcs reaching all n vertices make a tree
    if reached != n:
        return None
    return tuple(parent), tuple(parc), tuple(psign), tuple(depth)


def _tree_path(rooted, s, t):
    """(arc index, sign) for each tree arc on the s-t path of a rooted
    orientation; the sign is +1 when the path crosses the arc along it."""
    parent, parc, psign, depth = rooted
    a, b = s, t
    while a != b:
        if depth[a] >= depth[b]:
            yield parc[a], psign[a]
            a = parent[a]
        else:
            yield parc[b], -psign[b]
            b = parent[b]


def network_matrix(tree, digraph):
    """The |A0| x |A| network matrix of a directed tree and a digraph.

    Column e = (s, t) holds +-1 on the tree arcs of the unique undirected
    s-t path, signed by whether the arc is crossed with or against its
    own orientation.
    """
    if not tree.is_tree():
        raise PreconditionError("first argument must be a spanning directed tree")
    if digraph.vertices > tree.vertices:
        raise UsageError("digraph vertex set exceeds the tree's")
    nrows = len(tree.arcs)
    cols = []
    for (s, t) in digraph.arcs:
        col = [0] * nrows
        for idx, sign in _tree_path(tree._rooted, s, t):
            col[idx] = sign
        cols.append(col)
    return IntMatrix.from_columns(cols, rows=nrows)


class TransposeExtension(Record):
    matrix: IntMatrix
    tree: ArcGraph
    digraph: ArcGraph


def transpose_extension(mprime, tree, digraph):
    """Extend M' (a transpose of a network matrix) to (I | M').

    ``tree``/``digraph`` must realize M' transposed, i.e.
    network_matrix(tree, digraph) == M'^T. For each digraph arc s -> t a
    pendant vertex v is added with tree arc v -> s and the digraph arc is
    replaced by v -> t; the result realizes (I | M') as a transpose of a
    network matrix again.
    """
    matrix_arg(mprime, "mprime")
    if network_matrix(tree, digraph) != mprime.transpose():
        raise PreconditionError("realization does not reproduce the matrix")
    k = len(digraph.arcs)
    new_tree_arcs = []
    new_digraph_arcs = []
    for i, (s, t) in enumerate(digraph.arcs):
        v = tree.vertices + i
        new_tree_arcs.append((v, s))
        new_digraph_arcs.append((v, t))
    ext_tree = ArcGraph.from_arcs(tree.vertices + k,
                                  tuple(new_tree_arcs) + tree.arcs)
    ext_digraph = ArcGraph.from_arcs(tree.vertices + k, new_digraph_arcs)
    result = IntMatrix.identity(k).hstack(mprime)
    if network_matrix(ext_tree, ext_digraph) != result.transpose():
        raise AssertionError("extension failed to realize (I | M')")
    return TransposeExtension(result, ext_tree, ext_digraph)


def edge_patterns(tree, paths):
    """The distinct nonempty patterns of the given endpoint pairs on a tree.

    The pattern of a tree arc is the set of paths through it, as a mask
    whose bit j stands for path j: a Python int, so of any width.
    """
    if not tree.is_tree():
        raise PreconditionError("pattern analysis requires a tree")
    masks = [0] * len(tree.arcs)
    for j, path in enumerate(pair_list(paths, "paths")):
        s, t = int_pair(path, "path")
        if not (0 <= s < tree.vertices and 0 <= t < tree.vertices):
            raise UsageError(f"path endpoint ({s},{t}) not a tree vertex")
        for idx, _ in _tree_path(tree._rooted, s, t):
            masks[idx] |= 1 << j
    return set(masks) - {0}


class PatternReport(Record):
    npaths: int
    pattern_count: int
    bound: Optional[int]
    bound_ok: Optional[bool]
    odd_count: int
    odd_bound: Optional[int]
    odd_bound_ok: Optional[bool]


def verify_pattern_bounds(tree, paths):
    """Count distinct (odd) patterns against the 3m-3 and 3m-5 bounds.

    Violations are reported, not raised, so sweeps can log counterexamples.
    The bounds apply for m >= 2 and m >= 3 respectively; outside that the
    fields are None.
    """
    paths = pair_list(paths, "paths")
    masks = edge_patterns(tree, paths)
    m = len(paths)
    count = len(masks)
    odd = sum(mask.bit_count() & 1 for mask in masks)
    bound = 3 * m - 3 if m >= 2 else None
    odd_bound = 3 * m - 5 if m >= 3 else None
    return PatternReport(
        npaths=m,
        pattern_count=count,
        bound=bound,
        bound_ok=None if bound is None else count <= bound,
        odd_count=odd,
        odd_bound=odd_bound,
        odd_bound_ok=None if odd_bound is None else odd <= odd_bound,
    )


def _underlying_bipartite(digraph):
    color = [-1] * digraph.vertices
    adj = [[] for _ in range(digraph.vertices)]
    # a loop makes its vertex its own neighbour, which the colouring rejects
    for a, b in digraph.arcs:
        adj[a].append(b)
        adj[b].append(a)
    for start in range(digraph.vertices):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


class NetworkColumnReport(Record):
    applicable: bool
    num_cols: int
    num_tree_arcs: int
    bound: float
    bound_ok: Optional[bool]
    bipartite: Optional[bool]
    equality: bool
    ok: Optional[bool]


def verify_network_column_bound(tree, digraph):
    """Check |A| <= (|A0|+1)^2/4 for applicable instances.

    Applicable means all columns of the network matrix are pairwise
    distinct with positive odd column sums; the report also records
    whether the digraph's underlying graph is bipartite, the key step of
    the bound's proof.
    """
    m = network_matrix(tree, digraph)
    sums = [sum(m.col(j)) for j in range(m.cols)]
    applicable = (m.columns_distinct()
                  and all(s > 0 and s % 2 == 1 for s in sums))
    na = m.cols
    n0 = len(tree.arcs)
    bound_ok = 4 * na <= (n0 + 1) ** 2
    equality = 4 * na == (n0 + 1) ** 2
    if not applicable:
        return NetworkColumnReport(False, na, n0, (n0 + 1) ** 2 / 4,
                                   None, None, equality, None)
    bip = _underlying_bipartite(digraph)
    return NetworkColumnReport(True, na, n0, (n0 + 1) ** 2 / 4,
                               bound_ok, bip, equality, bound_ok and bip)


class TransposeRowReport(Record):
    num_cols: int
    distinct_pos_rows: int
    pos_bound: Optional[int]
    pos_ok: Optional[bool]
    distinct_pos_odd_rows: int
    odd_bound: Optional[int]
    odd_ok: Optional[bool]


def verify_transpose_row_bound(m):
    """Distinct rows with positive (odd) row sums against 3|A|-3 and 3|A|-5.

    ``m`` should be a network matrix; |A| is its column count. The linear
    bound is only compared for |A| >= 2 and the odd bound for |A| >= 3
    (for a single column the literal bound reads 0 while one positive row
    can exist, so such instances are recorded without comparison).
    """
    na = matrix_arg(m).cols
    pos = {m.row(i) for i in range(m.rows) if sum(m.row(i)) > 0}
    odd = {r for r in pos if sum(r) % 2 == 1}
    pos_bound = 3 * na - 3 if na >= 2 else None
    odd_bound = 3 * na - 5 if na >= 3 else None
    return TransposeRowReport(
        num_cols=na,
        distinct_pos_rows=len(pos),
        pos_bound=pos_bound,
        pos_ok=None if pos_bound is None else len(pos) <= pos_bound,
        distinct_pos_odd_rows=len(odd),
        odd_bound=odd_bound,
        odd_ok=None if odd_bound is None else len(odd) <= odd_bound,
    )
