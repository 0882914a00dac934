#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs two interleaved sets of benchmark runs (set A and set B, each over
the same seeds: A1 B1 A2 B2 ...) and prints, for each workload and
metric, each set's median and quartiles, the quartile spread as a share
of the median, and whether the sets agree within the metric's bound from
BENCHMARK.json. Run it from the repository root:

    python3 perfbench/steady.py                      # every workload, seeds 1-10
    python3 perfbench/steady.py --workloads nc_full --seeds 5

The acceptance rule it applies: every metric's spread, set-up time's
too, is within the metric's bound (the target is a third of it), and
for every metric the medians of sets A and B differ by at most the bound
in either direction. Exits 1 when a run fails or a check does not hold.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True)
    wall = time.monotonic() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result.get("correct"):
        raise SystemExit(f"{workload} seed {seed}: correct is false")
    return {k: v["value"] for k, v in result["metrics"].items()}, wall


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def change(first, second):
    """Share by which `second` differs from `first`."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    return (second - first) / abs(first)


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--show", action="store_true", help="print every run's value")
    args = ap.parse_args()

    metrics = bench["end_to_end"]
    ok = True
    for workload in args.workloads.split(","):
        sets = [[], []]
        walls = []
        for seed in range(1, args.seeds + 1):
            for s in range(2):
                values, wall = run_once(bench["command"], workload, seed, args.seconds, 0)
                sets[s].append(values)
                walls.append(wall)
        print(f"\n{workload}: 2 sets x {args.seeds} seeds, "
              f"run wall {min(walls):.1f}-{max(walls):.1f} s")
        print(f"  {'metric':<18} {'set':<3} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>7} {'bound':>6}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = [summary([v[name] for v in runs]) for runs in sets]
            for s, (med, q1, q3, spread) in enumerate(stats):
                verdict = []
                if spread > bound:
                    verdict.append("SPREAD>BOUND")
                    ok = False
                elif spread > bound / 3:
                    verdict.append("spread>bound/3")
                if s == 1:
                    d = change(stats[0][0], med)
                    verdict.append(f"B vs A {d:+.1%}")
                    if abs(d) > bound:
                        verdict.append("MEDIANS DISAGREE")
                        ok = False
                print(f"  {name:<18} {'AB'[s]:<3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                      f"{spread:>7.1%} {bound:>6.2f}  {' '.join(verdict) or 'ok'}")
                if args.show:
                    print("      runs: " + " ".join(f"{v[name]:.4g}" for v in sets[s]))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
