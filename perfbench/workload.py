"""Runs one benchmark workload in this process and prints its raw results.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --mode setup|run|trace --workdir DIR [--spans FILE]

``perfbench/run.py`` starts this script with ``src`` on ``PYTHONPATH`` and
turns its output, one JSON line, into the benchmark's metrics.

* ``setup``: import tumax, build the warm-up and first pass's inputs and
  run the warm-up ops, then report the set-up time (importing tumax and
  the warm-up ops, not the making of inputs) and exit.
* ``run``: set up, then run whole timed passes back to back for about
  ``seconds`` (at least MIN_PASSES), then check every output.
* ``trace``: set up, run the first pass untraced and then again with the
  span tracer installed, check both, and report the per-layer metrics and
  the tracing overhead.
"""

import time

SETUP_START = time.perf_counter()  # set-up time includes importing tumax

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from hostspeed import INTERVAL_S, HostSpeed  # noqa: E402

FAILED = object()
MIN_PASSES = 1


def run_pass(ops, speed, tracer=None):
    """Run ``ops`` back to back. Returns each op's latency without the
    host-speed sampling, unscaled and scaled to the reference speed, the
    outputs and the number of ops that raised."""
    spans, outputs, failed = [], [], 0
    for op in ops:
        t = time.perf_counter()
        try:
            if tracer is None:
                out = op.call()
            else:
                out = tracer.call("op." + op.kind, op.call)
        except Exception:
            traceback.print_exc()
            out = FAILED
            failed += 1
        spans.append((t, time.perf_counter()))
        outputs.append(out)
    # scale once the samples after the last op have been taken too
    time.sleep(2 * INTERVAL_S)
    raw, scaled = zip(*(speed.timed(t0, t1) for t0, t1 in spans))
    return list(raw), list(scaled), outputs, failed


def count_wrong(ops, outputs):
    """Number of outputs (of ops that did not raise) that fail their check."""
    wrong = 0
    for op, out in zip(ops, outputs):
        if out is FAILED:
            continue
        try:
            ok = op.check(out)
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            wrong += 1
            print(f"wrong output: {op.kind}", file=sys.stderr)
    return wrong


def phase_seconds(ops, latencies):
    out = {}
    for op, lat in zip(ops, latencies):
        out[op.phase] = out.get(op.phase, 0.0) + lat
    return out


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True,
                   choices=("requests", "search", "polytopes"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans")
    args = p.parse_args()
    # sampling starts before tumax is imported, so set-up is scaled too
    speed = HostSpeed()
    speed.start()

    # set-up is importing tumax and running the warm-up ops; making the
    # inputs is the benchmark's own work and is left out of it
    import tumax.cli  # noqa: F401
    import tumax.kernels
    imported = time.perf_counter()
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    if not os.path.abspath(tumax.kernels.__file__).startswith(src + os.sep):
        sys.exit(f"tumax was imported from {tumax.kernels.__file__}, "
                 f"not from {src}")
    module = importlib.import_module("workload_" + args.workload)

    os.makedirs(args.workdir, exist_ok=True)
    try:
        wl = module.Workload(args.seed, args.workdir)
        warm = wl.warm_up_ops()
        first = wl.pass_ops(0)
        warm_raw, warm_scaled, warm_out, warm_failed = run_pass(warm, speed)
        import_raw, import_scaled = speed.timed(SETUP_START, imported)
        result = {"setup_raw_s": import_raw + sum(warm_raw),
                  "setup_s": import_scaled + sum(warm_scaled)}
        if args.mode == "run":
            result.update(timed_passes(wl, first, args.seconds, speed))
        elif args.mode == "trace":
            result.update(traced_pass(first, args, speed))
        # a warm-up op that raises or answers wrongly makes the run wrong
        result["wrong"] = (result.get("wrong", 0) + warm_failed
                           + count_wrong(warm, warm_out))
        result["env"] = {"backend": tumax.kernels.BACKEND,
                         "python": platform.python_version(),
                         "nproc": os.cpu_count()}
    finally:
        speed.stop()
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(result))


def timed_passes(wl, first, seconds, speed):
    """At least MIN_PASSES passes, then more while another pass of the mean
    length still ends within ``seconds`` of timed work."""
    runs = []
    timed = 0.0
    while (len(runs) < MIN_PASSES
           or timed + timed / len(runs) <= seconds):
        ops = first if not runs else wl.pass_ops(len(runs))
        runs.append((ops,) + run_pass(ops, speed))
        timed += sum(runs[-1][1])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    speed.stop()
    passes, failed, wrong = [], 0, 0
    for ops, raw, latencies, outputs, nfailed in runs:
        failed += nfailed
        wrong += count_wrong(ops, outputs)
        passes.append({"raw_latencies": raw, "latencies": latencies,
                       "phase_s": phase_seconds(ops, latencies)})
    return {"passes": passes, "attempted": sum(len(r[0]) for r in runs),
            "failed": failed, "wrong": wrong, "peak_rss_mb": peak_rss_mb}


def traced_pass(ops, args, speed):
    """The pass untraced, then traced. Self times include the host-speed
    sampling (about 3 %); the overhead ratio compares scaled pass times."""
    from spans import Tracer, per_layer_metrics

    _, plain_lat, plain_out, plain_failed = run_pass(ops, speed)
    tracer = Tracer()
    tracer.install()
    try:
        _, traced_lat, traced_out, traced_failed = run_pass(ops, speed, tracer)
    finally:
        tracer.uninstall()
        speed.stop()
    if args.spans:
        tracer.write(args.spans, f"workload {args.workload} seed {args.seed} "
                                 f"spans {len(tracer.start)}")
    metrics = per_layer_metrics(tracer)
    plain_wall, traced_wall = sum(plain_lat), sum(traced_lat)
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    return {"per_layer": metrics, "attempted": 2 * len(ops),
            "failed": plain_failed + traced_failed,
            "wrong": count_wrong(ops, plain_out) + count_wrong(ops, traced_out),
            "plain_wall_s": plain_wall, "traced_wall_s": traced_wall,
            "spans": len(tracer.start)}


if __name__ == "__main__":
    main()
