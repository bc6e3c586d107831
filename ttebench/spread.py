"""Run the benchmark on several seeds and print each metric's spread.

    python3 ttebench/spread.py --workload build --seeds 0-9 [--seconds S]

For every end-to-end metric it prints the median of the runs and the
inter-quartile distance as a share of that median
(``statistics.quantiles(values, n=4)``), beside the metric's bound from
BENCHMARK.json, so the benchmark's steadiness can be checked before it
is relied on.  Runs are sequential, one process each.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import stats

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", type=seed_list)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = args.seconds or spec["run_seconds"]
    section = "per_layer" if args.trace else "end_to_end"
    values = {m["name"]: [] for m in spec[section]}
    walls = []
    for seed in args.seeds:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", f"{seconds:g}", "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-4000:], file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: {walls[-1]:.1f} s wall, correct "
              f"{result['correct']}, attempted {result['attempted']}, "
              f"failed {result['failed']}", flush=True)
        for line in proc.stdout.splitlines():
            if "host factor" in line:
                print("   " + line.strip())
        for name, entry in result["metrics"].items():
            values[name].append(entry["value"])
    bounds = {m["name"]: m.get("bound") for m in spec[section]}
    print(f"{args.workload}: {len(args.seeds)} runs, wall median "
          f"{statistics.median(walls):.1f} s")
    for name, vals in values.items():
        med = statistics.median(vals)
        spread = (stats.quartile_spread(vals) if len(vals) > 1 and med
                  else float("nan"))
        bound = bounds[name]
        note = "" if bound is None else \
            f"  bound {bound:.2f} ({spread / bound:.2f} of it)"
        print(f"  {name:40s} median {med:12.6g}  spread {spread:7.3f}{note}")
        print("    " + " ".join(f"{v:.4g}" for v in vals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
