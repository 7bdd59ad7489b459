"""Span tracing of tumax's public functions, installed from outside.

``Tracer.install`` wraps each function named in ``TRACED`` and puts the
wrapper on every ``tumax`` module that holds the function under some name,
so callers that imported it by name (``from .lp import in_convex_hull``)
are traced as well as callers that look it up on its module. The compiled
and pure kernel modules themselves are left alone: calls inside a kernel
are part of that kernel's time.

Each call records a span (name, start, end, parent) in flat arrays; the
spans are written out by ``Tracer.write`` when the run ends. A span's self
time is its duration minus the durations of the traced spans directly
inside it.
"""

import functools
import importlib
import sys
import time
from array import array

# (module, function) pairs wrapped by the traced run.
TRACED = (
    ("cli", "run"),
    ("matrix", "parse_matrix_text"),
    ("certify", "is_totally_unimodular"),
    ("certify", "ghouila_houri_check"),
    ("certify", "is_unimodular"),
    ("certify", "polytopal_certificate"),
    ("kernels", "tu_violation"),
    ("kernels", "det_entries"),
    ("kernels", "rank_entries"),
    ("kernels", "max_tu_subset"),
    ("kernels", "unimodular_violation"),
    ("kernels", "canonical_masks"),
    ("linsolve", "row_hnf"),
    ("linsolve", "solve_left_integer"),
    ("linsolve", "invert_unimodular"),
    ("lp", "in_convex_hull"),
    ("polytopes", "vertex_hull"),
    ("polytopes", "lattice_isomorphic"),
    ("polytopes", "fingerprint"),
    ("polytopes", "classify_unimodular"),
    ("search", "max_polytopal_tu_columns"),
    ("search", "max_tu_columns"),
    ("search", "max_odd_sum_tu_columns"),
    ("graphs", "parse_graph_text"),
    ("graphs", "network_matrix"),
    ("graphs", "verify_network_column_bound"),
    ("graphs", "verify_transpose_row_bound"),
    ("sums", "compose"),
)

# Per-layer metrics that sum the self time of every traced function of a
# module rather than naming one function.
MODULE_SELF = ("search", "graphs")

_BACKEND_MODULES = ("tumax._pykernels", "tumax._ckernels")


def _count_result(counters, name, result):
    """Counts taken from return values: search nodes, isomorphism hits,
    subsets examined and classes kept by the classification."""
    if name == "kernels.max_tu_subset":
        counters["kernels.max_tu_subset.nodes"] += result[2]
    elif name == "polytopes.lattice_isomorphic":
        counters["polytopes.lattice_isomorphic.hits"] += bool(result)
    elif name == "polytopes.classify_unimodular":
        counters["polytopes.classify_unimodular.subsets"] += \
            result.subsets_examined
        counters["polytopes.classify_unimodular.kept"] += result.count


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.current = -1
        self.counters = {"kernels.max_tu_subset.nodes": 0,
                         "polytopes.lattice_isomorphic.hits": 0,
                         "polytopes.classify_unimodular.subsets": 0,
                         "polytopes.classify_unimodular.kept": 0}
        self._installed = []

    def _id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        idx = len(self.start)
        parent = self.current
        self.name_id.append(self._id(name))
        self.parent.append(parent)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self.current = idx
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter_ns()
            self.current = parent
        _count_result(self.counters, name, result)
        return result

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def install(self):
        """Wrap every function in ``TRACED`` wherever tumax refers to it."""
        for mod, _ in TRACED:
            importlib.import_module("tumax." + mod)
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "tumax" or n.startswith("tumax."))
                   and n not in _BACKEND_MODULES and m is not None]
        for mod, fname in TRACED:
            orig = getattr(sys.modules["tumax." + mod], fname)
            wrapper = self._wrap(f"{mod}.{fname}", orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)
                        self._installed.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._installed):
            setattr(m, attr, orig)
        self._installed.clear()

    def layer_stats(self):
        """{name: [calls, self seconds]} over every recorded span."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        stats = {name: [0, 0.0] for name in self.names}
        for i in range(n):
            s = stats[self.names[self.name_id[i]]]
            s[0] += 1
            s[1] += (self.end[i] - self.start[i] - child[i]) / 1e9
        return stats

    def write(self, path, header):
        """Spans as text: a header line, the name table, then one line per
        span: index, parent index (-1 for a root), name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# {header}\n")
            fh.write("# names " + " ".join(self.names) + "\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name_id[i]]}"
                         f"\t{self.start[i]}\t{self.end[i]}\n")


def per_layer_metrics(tracer):
    """Every per-layer metric of the benchmark from one traced pass."""
    stats = tracer.layer_stats()
    c = tracer.counters
    out = {}
    for mod, fname in TRACED:
        name = f"{mod}.{fname}"
        calls, self_s = stats.get(name, (0, 0.0))
        if mod not in MODULE_SELF:
            out[name + ".calls"] = (calls, "count")
            out[name + ".self_s"] = (self_s, "s")
    for mod in MODULE_SELF:
        out[mod + ".self_s"] = (sum((s[1] for n, s in stats.items()
                                     if n.startswith(mod + ".")), 0.0), "s")
    out["kernels.max_tu_subset.nodes"] = (c["kernels.max_tu_subset.nodes"],
                                          "count")
    iso_calls = stats.get("polytopes.lattice_isomorphic", (0, 0.0))[0]
    out["polytopes.lattice_isomorphic.hit_ratio"] = (
        c["polytopes.lattice_isomorphic.hits"] / iso_calls if iso_calls else 0.0,
        "ratio")
    subsets = c["polytopes.classify_unimodular.subsets"]
    out["polytopes.classify_unimodular.subsets"] = (subsets, "count")
    out["polytopes.classify_unimodular.kept_ratio"] = (
        c["polytopes.classify_unimodular.kept"] / subsets if subsets else 0.0,
        "ratio")
    return out
