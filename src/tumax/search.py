"""Exhaustive extremal searches: the maximum number of distinct columns of
a TU matrix with m rows, plain or under the column-sum-1 (polytopal) or
positive-odd-sum normalizations.

Searches run over the normalized form (I_m | M') where only M' needs
testing, as an extension of a TU matrix by the identity block preserves
total unimodularity. ``verify`` mode explores without assuming the bound
being verified; ``fast`` mode adds symmetry reduction and stops once the
target value is reached.
"""

import os
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


def _env_int(name):
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{name} must be an integer, got {raw!r}")


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


def _run_branch(args):
    m, flat, ncand, perms, stop_at, budget, first = args
    return kernels.max_tu_subset(m, flat, ncand, perms=perms, stop_at=stop_at,
                                 node_budget=budget, fixed_first=first)


def _search(m, mode, fast, node_budget, workers):
    cands = candidate_columns(m, mode)
    ncand = len(cands)
    flat = [x for c in cands for x in c]
    perms = None
    stop_at = -1
    if fast:
        perms = _index_perms(cands, m) if m <= 7 else None
        if mode == "polytopal":
            stop_at = h(m) - m
        elif mode == "heller":
            stop_at = m * m + m + 1
    budget = -1 if node_budget is None else node_budget

    if workers and workers > 1 and budget < 0 and ncand:
        from concurrent.futures import ProcessPoolExecutor

        args = [(m, flat, ncand, perms, stop_at, budget, first)
                for first in range(ncand)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            branch_results = list(pool.map(_run_branch, args))
        best, witness, nodes, complete = 0, [], 0, True
        for res in branch_results:
            b, w, n, c = res
            nodes += n
            complete = complete and c
            if b > best:
                best, witness = b, w
            if stop_at >= 0 and best >= stop_at:
                break
        return cands, best, witness, nodes, complete
    best, witness, nodes, complete = kernels.max_tu_subset(
        m, flat, ncand, perms=perms, stop_at=stop_at, node_budget=budget,
        fixed_first=-1)
    return cands, best, witness, nodes, complete


def _max_columns(m, kind, min_m, mode, node_budget, workers, max_m):
    """Run one search and wrap it as a SearchResult. Every kind but heller
    searches beside an implicit identity block, which the witness and the
    column count include."""
    limit = DEFAULT_MAX_M[kind] if max_m is None else max_m
    if not min_m <= m <= limit:
        raise UsageError(f"m must be in [{min_m}, {limit}]")
    if mode not in ("verify", "fast"):
        raise UsageError("mode must be 'verify' or 'fast'")
    if node_budget is None:
        node_budget = _env_int("TUMAX_BUDGET_NODES")
    if workers is None:
        workers = _env_int("TUMAX_THREADS") or 1
    start = time.perf_counter()
    cands, best, witness, nodes, complete = _search(
        m, kind, mode == "fast", node_budget, workers)
    elapsed = time.perf_counter() - start
    matrix = IntMatrix.from_columns([cands[i] for i in witness], rows=m)
    if kind != "heller":
        matrix = IntMatrix.identity(m).hstack(matrix)
        best += m
    expected = (h(m) if kind == "polytopal"
                else m * m + m + 1 if kind == "heller" else None)
    matches = (best == expected) if complete and expected is not None else None
    return SearchResult(m, kind, best, matrix, nodes, complete, elapsed,
                        expected, matches)


def max_polytopal_tu_columns(m, mode="verify", node_budget=None, workers=None,
                             max_m=None):
    """Maximum column count of a prepared TU matrix (I_m | M') with m rows.

    ``verify`` explores the full candidate space; ``fast`` adds symmetry
    reduction and the proven bound as a stopping target. The result
    records the bound h(m) and whether the search reproduced it.
    """
    return _max_columns(m, "polytopal", 2, mode, node_budget, workers, max_m)


def max_tu_columns(m, mode="verify", node_budget=None, workers=None,
                   max_m=None):
    """Maximum number of pairwise distinct columns of a TU matrix with m rows."""
    return _max_columns(m, "heller", 1, mode, node_budget, workers, max_m)


def max_odd_sum_tu_columns(m, mode="verify", node_budget=None, workers=None,
                           max_m=None):
    """Maximum column count of (I_m | M') with distinct positive-odd-sum
    columns; reported without asserting any bound."""
    return _max_columns(m, "odd-sums", 1, mode, node_budget, workers, max_m)
