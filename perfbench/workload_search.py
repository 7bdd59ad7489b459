"""The ``search`` workload: the exhaustive column-bound searches.

A pass runs ``verify polytopal-bound --m 2..6``, ``verify heller-bound
--m 1..3`` and ``verify odd-bound --m 1..5``, each in ``verify`` and in
``fast`` mode, through ``tumax.cli.run``. The two long searches run once
and the 24 others REPEATS times (146 calls), so that the per-call
percentiles rest on enough calls while a pass stays within one run. The
inputs are fixed by the paper; the seed only orders the calls of each pass.
"""

import random

import reference as ref
from op import Op

from tumax import cli

RANGES = {"polytopal-bound": range(2, 7), "heller-bound": range(1, 4),
          "odd-bound": range(1, 6)}
# The verify-mode searches that take seconds (about 13 s and 1.3 s); every
# other search takes 5-150 ms.
LONG = (("polytopal-bound", 6), ("heller-bound", 3))
REPEATS = 6


class SearchChecks:
    """Checks of search outputs; the reference TU scan of each distinct
    witness runs once, and the odd-bound maxima of both modes must agree."""

    def __init__(self):
        self.tu_checked = {}
        self.odd_max = {}

    def witness_tu(self, witness):
        key = tuple(map(tuple, witness))
        if key not in self.tu_checked:
            self.tu_checked[key] = ref.tu_violation(witness) is None
        return self.tu_checked[key]

    def check(self, command, m, rep):
        s = rep.result["search"]
        w = s["witness"]
        cols = ref.columns(w)
        if rep.exit_status != 0 or not s["complete"] or s["m"] != m:
            return False
        if len(w) != m or len(cols) != s["max_columns"]:
            return False
        if len(set(cols)) != len(cols) or not self.witness_tu(w):
            return False
        if command == "heller-bound":
            return s["max_columns"] == m * m + m + 1
        # (I_m | M') forms: the identity block comes first
        if any(cols[i] != tuple(int(r == i) for r in range(m))
               for i in range(m)):
            return False
        if command == "polytopal-bound":
            return (s["max_columns"] == ref.h(m)
                    and all(sum(c) == 1 for c in cols))
        if not all(sum(c) > 0 and sum(c) % 2 for c in cols):
            return False
        return self.odd_max.setdefault(m, s["max_columns"]) == s["max_columns"]


class Workload:
    def __init__(self, seed, directory):
        self.seed = seed
        self.checks = SearchChecks()

    def warm_up_ops(self):
        return warm_up_ops(self.checks)

    def pass_ops(self, k):
        return build_pass(random.Random(self.seed * 1000 + k), self.checks)


def build_pass(rng, checks):
    ops = []
    for command, ms in RANGES.items():
        for m in ms:
            for mode in ("verify", "fast"):
                argv = ["verify", command, "--m", str(m), "--mode", mode]
                long = mode == "verify" and (command, m) in LONG
                ops += [Op(f"verify {command}", "search",
                           lambda argv=argv: cli.run(argv),
                           lambda rep, c=command, m=m: checks.check(c, m, rep))
                        ] * (1 if long else REPEATS)
    rng.shuffle(ops)
    return ops


def warm_up_ops(checks):
    argv = ["verify", "polytopal-bound", "--m", "3"]
    return [Op("verify polytopal-bound", "search", lambda: cli.run(argv),
               lambda rep: checks.check("polytopal-bound", 3, rep))]
