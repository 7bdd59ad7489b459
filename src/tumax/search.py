"""Exhaustive extremal searches: the maximum number of distinct columns of
a TU matrix with m rows, plain or under the column-sum-1 (polytopal) or
positive-odd-sum normalizations.

Searches run over the normalized form (I_m | M') where only M' needs
testing, as an extension of a TU matrix by the identity block preserves
total unimodularity. ``verify`` mode explores without assuming the bound
being verified; ``fast`` mode adds symmetry reduction and stops once the
target value is reached.
"""

import time
from dataclasses import dataclass
from itertools import permutations, product
from operator import itemgetter
from typing import Optional

from . import kernels
from .errors import UsageError
from .families import h
from .matrix import IntMatrix

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
    if m < 1:
        raise UsageError("m must be >= 1")
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


@dataclass(frozen=True)
class SearchResult:
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
    """Candidate-index permutations induced by coordinate permutations."""
    index = {c: i for i, c in enumerate(cands)}
    perms = []
    for sigma in permutations(range(m)):
        if sigma == tuple(range(m)):
            continue
        # sigma has m >= 2 entries here, so ``permuted`` returns a tuple
        permuted = itemgetter(*sigma)
        perms.append([index[permuted(c)] for c in cands])
    return perms


def _max_columns(m, kind, min_m, mode, node_budget, max_m):
    """Run one search and wrap it as a SearchResult. Every kind but heller
    searches beside an implicit identity block, which the witness and the
    column count include. ``node_budget`` (>= 0, None for none) caps the
    subset tests; a search that reaches it is reported incomplete."""
    limit = DEFAULT_MAX_M[kind] if max_m is None else max_m
    if not min_m <= m <= limit:
        raise UsageError(f"m must be in [{min_m}, {limit}]")
    if mode not in ("verify", "fast"):
        raise UsageError("mode must be 'verify' or 'fast'")
    if node_budget is not None and node_budget < 0:
        raise UsageError("node budget must be >= 0")
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
    budget = -1 if node_budget is None else node_budget
    best, witness, nodes, complete = kernels.max_tu_subset(
        m, [x for c in cands for x in c], len(cands), perms=perms,
        stop_at=stop_at, node_budget=budget)
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
    reduction and the proven bound as a stopping target. The result
    records the bound h(m) and whether the search reproduced it.
    """
    return _max_columns(m, "polytopal", 2, mode, node_budget, max_m)


def max_tu_columns(m, mode="verify", node_budget=None, max_m=None):
    """Maximum number of pairwise distinct columns of a TU matrix with m rows."""
    return _max_columns(m, "heller", 1, mode, node_budget, max_m)


def max_odd_sum_tu_columns(m, mode="verify", node_budget=None, max_m=None):
    """Maximum column count of (I_m | M') with distinct positive-odd-sum
    columns; reported without asserting any bound."""
    return _max_columns(m, "odd-sums", 1, mode, node_budget, max_m)
