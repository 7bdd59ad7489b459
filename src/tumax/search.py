"""Exhaustive extremal searches: the maximum number of distinct columns of
a TU matrix with m rows, plain or under the column-sum-1 (polytopal) or
positive-odd-sum normalizations.

Searches run over the normalized form (I_m | M') where only M' needs
testing, as an extension of a TU matrix by the identity block preserves
total unimodularity. ``verify`` mode explores without assuming the bound
being verified; ``fast`` mode adds symmetry reduction for m <= 7 (past
that it builds no table of the m! row permutations) and stops once the
target value is reached.
"""

import time
from itertools import permutations, product
from operator import itemgetter
from typing import Optional

from . import kernels
from ._record import Record
from .errors import UsageError
from .families import h
from .matrix import IntMatrix, int_arg

DEFAULT_MAX_M = {"polytopal": 6, "heller": 3, "odd-sums": 5}

MODES = ("polytopal", "heller", "odd-sums")


def candidate_columns(m, mode):
    """Candidate columns in lexicographic order (-1 < 0 < 1).

    polytopal: coordinate sum 1, standard basis vectors excluded (the
    identity block is implicit); heller: every {-1,0,1} vector;
    odd-sums: positive odd coordinate sum, basis vectors excluded.
    """
    if mode not in MODES:
        raise UsageError(f"unknown search mode {mode!r}")
    int_arg(m, 1, "m must be >= 1")
    out = []
    for v in product((-1, 0, 1), repeat=m):
        s = sum(v)
        if mode == "polytopal":
            if s != 1 or sum(1 for x in v if x) == 1:
                continue
        elif mode == "odd-sums":
            if s <= 0 or s % 2 == 0:
                continue
            if s == 1 and sum(1 for x in v if x) == 1:
                continue
        out.append(v)
    return out


class SearchResult(Record):
    m: int
    mode: str
    max_columns: int
    witness: IntMatrix
    nodes: int
    complete: bool
    seconds: float
    expected: Optional[int]
    matches_expected: Optional[bool]

    def to_json_dict(self):
        return {
            "m": self.m,
            "mode": self.mode,
            "max_columns": self.max_columns,
            "witness": self.witness.to_lists(),
            "nodes": self.nodes,
            "complete": self.complete,
            "seconds": self.seconds,
        }


def _index_perms(cands, m):
    """Candidate-index permutations induced by coordinate permutations,
    in the order of ``itertools.permutations`` without the identity.

    Only the m - 1 adjacent transpositions are looked up column by column.
    Every other sigma has a first descent k (sigma[k] > sigma[k + 1]);
    swapping it gives a lexicographically smaller tau, already built, with
    sigma = tau∘t for the transposition t of k and k + 1. Permuting the
    coordinates of a column by tau and then by t permutes them by sigma,
    so sigma's index permutation is the composite ``perm[t][perm[tau][j]]``.
    """
    index = {c: i for i, c in enumerate(cands)}
    adjacent = []
    for k in range(m - 1):
        # m >= 2 entries here, so ``swap`` returns a tuple
        swap = itemgetter(*range(k), k + 1, k, *range(k + 2, m))
        adjacent.append([index[swap(c)] for c in cands])
    table = {}
    for sigma in permutations(range(m)):
        k = next((i for i in range(m - 1) if sigma[i] > sigma[i + 1]), None)
        if k is None:  # the identity, which comes first
            table[sigma] = list(range(len(cands)))
            continue
        tau = sigma[:k] + (sigma[k + 1], sigma[k]) + sigma[k + 2:]
        table[sigma] = list(map(adjacent[k].__getitem__, table[tau]))
    return list(table.values())[1:]


def _max_columns(m, kind, min_m, mode, node_budget, max_m):
    """Run one search and wrap it as a SearchResult. Every kind but heller
    searches beside an implicit identity block, which the witness and the
    column count include. ``node_budget`` (>= 0, None for none) caps the
    subset tests; a search that reaches it is reported incomplete."""
    limit = DEFAULT_MAX_M[kind] if max_m is None else int_arg(
        max_m, min_m, f"max_m must be an integer >= {min_m}, got {max_m!r}")
    int_arg(m, min_m, f"m must be in [{min_m}, {limit}]", high=limit)
    if mode not in ("verify", "fast"):
        raise UsageError("mode must be 'verify' or 'fast'")
    budget = -1 if node_budget is None else int_arg(
        node_budget, 0, "node budget must be >= 0")
    expected = (h(m) if kind == "polytopal"
                else m * m + m + 1 if kind == "heller" else None)
    identity = 0 if kind == "heller" else m
    start = time.perf_counter()
    cands = candidate_columns(m, kind)
    perms = None
    stop_at = -1
    if mode == "fast":
        perms = _index_perms(cands, m) if m <= 7 else None
        if expected is not None:
            stop_at = expected - identity
    best, witness, nodes, complete = kernels.max_tu_subset(
        cands, perms=perms, stop_at=stop_at, node_budget=budget)
    elapsed = time.perf_counter() - start
    matrix = IntMatrix.from_columns([cands[i] for i in witness], rows=m)
    if identity:
        matrix = IntMatrix.identity(m).hstack(matrix)
    best += identity
    matches = (best == expected) if complete and expected is not None else None
    return SearchResult(m, kind, best, matrix, nodes, complete, elapsed,
                        expected, matches)


def max_polytopal_tu_columns(m, mode="verify", node_budget=None, max_m=None):
    """Maximum column count of a prepared TU matrix (I_m | M') with m rows.

    ``verify`` explores the full candidate space; ``fast`` adds symmetry
    reduction (for m <= 7 only) and the proven bound as a stopping
    target. The result records the bound h(m) and whether the search
    reproduced it.
    """
    return _max_columns(m, "polytopal", 2, mode, node_budget, max_m)


def max_tu_columns(m, mode="verify", node_budget=None, max_m=None):
    """Maximum number of pairwise distinct columns of a TU matrix with m rows."""
    return _max_columns(m, "heller", 1, mode, node_budget, max_m)


def max_odd_sum_tu_columns(m, mode="verify", node_budget=None, max_m=None):
    """Maximum column count of (I_m | M') with distinct positive-odd-sum
    columns; reported without asserting any bound."""
    return _max_columns(m, "odd-sums", 1, mode, node_budget, max_m)
