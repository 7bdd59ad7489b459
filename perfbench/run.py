"""The tumax benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload requests|search|polytopes|all \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; tumax is imported from
``src`` of that checkout. Each workload runs in its own child process
(``perfbench/workload.py``) with ``TUMAX_THREADS``, ``TUMAX_BUDGET_NODES``
and ``TUMAX_PURE`` removed from the environment, so the library's defaults
are measured. The child receives the seed and generates its inputs.

``--trace 0`` prints every end-to-end metric. Times are scaled to a
reference host speed (see hostspeed.py); ``setup_s`` is the median of
SETUP_SAMPLES set-ups, each in a fresh process. ``--trace 1`` runs one
pass untraced and once more with the span tracer, and prints the
per-layer metrics and the tracing overhead; the spans are written to
``.perfbench/spans-<workload>.tsv``. The last line of output is a
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit status is non-zero when any output is wrong or any
operation raised.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("requests", "search", "polytopes")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
# Settings that would change what is measured; removed from the children's
# environment.
CLEARED_ENV = ("TUMAX_THREADS", "TUMAX_BUDGET_NODES", "TUMAX_PURE",
               "PYTHONPATH")


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_child(workload, seed, seconds, mode, tag):
    workdir = os.path.join(OUT, f"{workload}-{seed}-{os.getpid()}-{tag}")
    argv = [sys.executable, os.path.join(BENCH, "workload.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--mode", mode, "--workdir", workdir]
    if mode == "trace":
        argv += ["--spans", spans_path(workload)]
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), timeout=CHILD_TIMEOUT_S,
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: workload process exited with "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spans_path(workload):
    return os.path.join(OUT, f"spans-{workload}.tsv")


def tail(values):
    """The 99th percentile (nearest rank) when at least ten values lie
    beyond it, else the highest percentile with ten values beyond it (the
    eleventh largest value)."""
    s = sorted(values)
    if len(s) < 11:
        return s[-1]
    return s[min(math.ceil(0.99 * len(s)) - 1, len(s) - 11)]


def time_metrics(setups, passes, latency_key):
    """setup_s, wall_s, ops_per_s, op_p50_ms and op_p99_ms from the set-ups
    and passes, taking op latencies from ``latency_key`` of each pass."""
    walls = [sum(p[latency_key]) for p in passes]
    latencies = [x for p in passes for x in p[latency_key]]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "ops_per_s": (statistics.median(len(p[latency_key]) / w
                                        for p, w in zip(passes, walls)),
                      "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "op_p99_ms": (tail(latencies) * 1000, "ms"),
    }


def end_to_end(workload, seed, seconds):
    setups = [run_child(workload, seed, seconds, "setup", f"setup{i}")
              for i in range(SETUP_SAMPLES - 1)]
    res = run_child(workload, seed, seconds, "run", "run")
    setups.append(res)
    passes = res["passes"]
    metrics = time_metrics([r["setup_s"] for r in setups], passes, "latencies")
    metrics["peak_rss_mb"] = (res["peak_rss_mb"], "MB")
    unscaled = time_metrics([r["setup_raw_s"] for r in setups], passes,
                            "raw_latencies")
    n = sum(len(p["latencies"]) for p in passes)
    rank = min(math.ceil(0.99 * n), n - 10)
    notes = [f"{len(passes)} passes, {n} ops; op_p99_ms is the "
             f"{100 * rank / n:.1f}th percentile",
             "unscaled: " + ", ".join(f"{k} {v:.4f} {u}"
                                      for k, (v, u) in unscaled.items())]
    if workload == "polytopes":
        for name in ("classify", "normalize"):
            value = statistics.median(p["phase_s"][name] for p in passes)
            notes.append(f"{name}_s {value:.4f} s")
    return res, metrics, notes


def traced(workload, seed, seconds):
    res = run_child(workload, seed, seconds, "trace", "trace")
    metrics = {k: tuple(v) for k, v in res["per_layer"].items()}
    notes = [f"tracing overhead {res['traced_wall_s']:.4f} s traced / "
             f"{res['plain_wall_s']:.4f} s untraced = "
             f"{metrics['trace.overhead_ratio'][0]:.4f}",
             f"{res['spans']} spans written to "
             f"{os.path.relpath(spans_path(workload), ROOT)}"]
    return res, metrics, notes


def report(workload, seed, trace, seconds):
    res, metrics, notes = (traced if trace else end_to_end)(workload, seed,
                                                             seconds)
    env = res["env"]
    print(f"workload {workload} seed {seed} trace {trace}: backend "
          f"{env['backend']}, python {env['python']}, nproc {env['nproc']}")
    for note in notes:
        print("  " + note)
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6f} {unit}")
    # an op that raised left no output to check, so it makes the run wrong
    summary = {"correct": res["wrong"] == 0 and res["failed"] == 0,
               "attempted": res["attempted"],
               "failed": res["failed"],
               "metrics": {k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()}}
    print(json.dumps(summary))
    return summary["correct"]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "tumax", "__init__.py")):
        sys.exit(f"no tumax sources under {os.path.join(ROOT, 'src')}")
    os.makedirs(OUT, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = [report(name, args.seed, args.trace, args.seconds) for name in names]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
