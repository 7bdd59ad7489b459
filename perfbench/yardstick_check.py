"""Checks the host-speed yardstick of hostspeed.py on the host it runs on.

    python3 perfbench/yardstick_check.py [--seconds 30]

Runs a fixed pure-Python chunk of work over and over under ``HostSpeed``
sampling, switching condition from one chunk to the next:

* ``plain``: the chunk alone;
* ``cache``: the chunk, then reads of a 1.5-million-element list at random
  places and a burst of allocations (a working set far beyond the caches);
* ``busy``: the main thread waits for WAIT_S while two other processes
  spin, one per core, as it does while search workers run, so a sample
  has to win a core from them.

The conditions alternate every few milliseconds, so host drift is shared
by all three. It prints the median yardstick sample taken during each
condition, in thread CPU time (what ``scale`` uses) and in handler wall
time: a yardstick that the program's state does not move reads the same
CPU time in all three. Then it prints the spread (interquartile range over
median) of the plain chunks' time, summed over blocks of BLOCK chunks,
unscaled and scaled: scaling should shrink it.
"""

import argparse
import bisect
import random
import signal
import statistics
import subprocess
import sys
import time

from hostspeed import HostSpeed

CONDITIONS = ("plain", "cache", "busy")
BLOCK = 30
WAIT_S = 0.01

_rng = random.Random(1)
_BIG = list(range(1_500_000))
_PLACES = [_rng.randrange(len(_BIG)) for _ in range(60_000)]


def chunk():
    s, d = 0, {}
    for i in range(40_000):
        s += i * i % 7
        d[i % 97] = s
    return s


def cache_pressure():
    s = 0
    for i in _PLACES:
        s += _BIG[i]
    return s, [object() for _ in range(20_000)]


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seconds", type=float, default=30)
    args = p.parse_args()
    spinners = [subprocess.Popen([sys.executable, "-c", "while True: pass"])
                for _ in range(2)]
    speed = HostSpeed()
    chunks = []  # (condition, start, end)
    try:
        for sp in spinners:
            sp.send_signal(signal.SIGSTOP)
        speed.start()
        end = time.perf_counter() + args.seconds
        k = 0
        while time.perf_counter() < end:
            cond = CONDITIONS[k % len(CONDITIONS)]
            if cond == "busy":
                for sp in spinners:
                    sp.send_signal(signal.SIGCONT)
            t = time.perf_counter()
            if cond == "busy":
                time.sleep(WAIT_S)
            else:
                chunk()
            if cond == "cache":
                cache_pressure()
            chunks.append((cond, t, time.perf_counter()))
            if cond == "busy":
                for sp in spinners:
                    sp.send_signal(signal.SIGSTOP)
            k += 1
        time.sleep(0.2)
    finally:
        speed.stop()
        for sp in spinners:
            sp.kill()
            sp.wait()

    starts = [c[1] for c in chunks]
    by_cond = {c: ([], []) for c in CONDITIONS}
    for at, spent, cpu in zip(speed.at, speed.spent, speed.cpu):
        i = bisect.bisect_right(starts, at) - 1
        if i >= 0 and at <= chunks[i][2]:
            by_cond[chunks[i][0]][0].append(cpu)
            by_cond[chunks[i][0]][1].append(spent)
    base = statistics.median(by_cond["plain"][0])
    print("condition  samples  median sample (thread CPU ms)  vs plain  "
          "median handler (wall ms)")
    for cond, (cpu, wall) in by_cond.items():
        med = statistics.median(cpu)
        print(f"{cond:9s} {len(cpu):8d} {1000 * med:30.4f} {med / base:9.3f} "
              f"{1000 * statistics.median(wall):24.4f}")

    plain = [speed.timed(t0, t1) for cond, t0, t1 in chunks if cond == "plain"]
    for i, name in enumerate(("unscaled", "scaled")):
        blocks = [sum(x[i] for x in plain[j:j + BLOCK])
                  for j in range(0, len(plain) - BLOCK + 1, BLOCK)]
        print(f"plain chunks, {name}: {len(blocks)} blocks of {BLOCK}, "
              f"median {statistics.median(blocks):.4f} s, "
              f"spread {spread(blocks):.3f}")


if __name__ == "__main__":
    main()
