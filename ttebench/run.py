"""Benchmark of the DeepOD stack: dataset build, training and serving.

    python3 ttebench/run.py --workload {build,serve} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  Each run is one fresh process that
drives the whole pipeline through public ``repro`` entry points: the
phases of all three stages are measured in the same interleaved rounds
for ``--seconds`` in every workload.  The workload names the stage whose
set-up (repeated between rounds) is reported as ``setup_s`` and whose
units the traced run pairs untraced/traced (see ``stages.py``).  The
run checks every output it produces, prints a readable report, and ends
with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json (the
closed-loop throughputs per reference second, see ``hostspeed.py``);
``--trace 1`` wraps each layer's public functions from outside (see
``layers.py``), passes a ``repro.obs.Tracer`` to the program's own
``tracer=`` parameters, and reports the per-layer metrics, the trace
overhead and the outside-in totals beside the program's span totals.
"""

import os
import sys

# One BLAS thread in the workload process; set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".ttebench-work")
WORKLOADS = ("build", "serve")
clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_sha():
    """HEAD's commit id, read from .git without running git (None when
    the checkout is not a repository)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as handle:
        ref = handle.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as handle:
            return handle.read().strip()
    return None


def src_digest():
    """sha256 over every source file under src/ (identifies the code
    when there is no git sha)."""
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def env_record():
    import numpy
    return {"cpus": len(os.sched_getaffinity(0)),
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_sha": git_sha(),
            "src_sha256": src_digest()}


def import_wall():
    """Wall of the benchmark's imports (numpy, every ``repro`` package
    the stages use) in a fresh interpreter, from its first statement."""
    code = ("import sys, time; t = time.perf_counter(); "
            f"sys.path[:0] = [{SRC!r}, {BENCH_DIR!r}]; "
            "import metrics, stages; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def print_table(title, rows):
    print(f"{title}")
    for row in rows:
        print("  " + row)


def run_workload(args, workdir):
    import metrics
    import stages

    run = stages.Run(args.seed, args.seconds, bool(args.trace), workdir,
                     primary=args.workload)
    build = stages.BuildStage(run)
    train = stages.TrainStage(run)
    serve = stages.ServeStage(run)
    primary = {"build": build, "serve": serve}[args.workload]
    imports = [] if run.trace else [import_wall()]
    setups = []
    if not run.trace:
        run.host_factors = collections.defaultdict(list)

    def remeasure():
        """Repeat the set-up between rounds, so its median spans the
        run's host conditions rather than its first seconds."""
        if not run.trace:
            imports.append(import_wall())
        setups.append(primary.setup())
    try:
        build_setup = build.setup()
        train.setup()
        train.warmup()
        serve.artifact_dir = train.warmup_dir
        serve_setup = serve.setup()
        setups.append(build_setup if primary is build else serve_setup)
        build.warmup()
        serve.warmup()
        run.rounds({"sparse": build.maker("sparse"),
                    "dense": build.maker("dense"),
                    "train": train.maker(),
                    "batch": serve.batch_maker(),
                    "burst": serve.burst_maker(),
                    "online": serve.online_maker()},
                   {"burst": serve.handler_probe("burst"),
                    "online": serve.handler_probe("online")},
                   {"online": serve.online_short} if run.trace else {},
                   remeasure)
        train.verify()
        if not run.trace:
            build.report()
            train.report()
            serve.report()
    finally:
        serve.stop()
    if run.trace:
        run.check("every wrapped entry point restored by identity",
                  not run.unrestored, ", ".join(run.unrestored))
        values = metrics.layer_metrics(run)
    else:
        import_med = statistics.median(imports)
        setup = statistics.median(setups)
        values = dict(run.e2e)
        values["setup_s"] = (import_med + setup, "s")
        values["peak_rss_mb"] = (peak_rss_mb(), "MB")
        run.note(f"  setup_s = median imports {import_med:.3f} s (n="
                 f"{len(imports)}) + median {args.workload} set-up "
                 f"{setup:.3f} s (n={len(setups)})")
    run.note(f"  {run.rounds_done} whole rounds")
    return run, values


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report(args, run, values, wanted):
    print(f"ttebench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env_record(), sort_keys=True))
    units = run.units
    print_table("units (plain / traced) per phase", [
        f"{phase:8s} {len(u['plain']):3d} / {len(u['traced']):3d}"
        for phase, u in sorted(units.items())])
    print_table("notes", run.report)
    title = "per-layer metrics" if args.trace else "end-to-end metrics"
    print_table(title, [f"{name:42s} {values[name][0]:14.6g} "
                        f"{values[name][1]}" for name in wanted])
    if args.trace:
        import layers
        rows = []
        for phase in sorted(run.tracers):
            spans = layers.span_totals(run.tracers[phase])
            for key, out_s, span, in_s, flag in layers.reconcile_rows(
                    run.probe, phase, spans):
                rows.append(f"{phase:7s} {key:24s} {out_s:10.4f} s | "
                            f"{span:20s} {in_s:10.4f} s  {flag}")
        print_table("outside-in | program spans (seconds, traced units)",
                    rows)
    print_table("correctness", [
        f"{'pass' if ok else 'FAIL'}  {name}" + (f" ({detail})"
                                                 if detail and not ok else "")
        for name, ok, detail in _merged(run.checks)])
    print(f"attempted {run.attempted}, failed {run.failed}, "
          f"correct {run.correct}")


def _merged(checks):
    """One line per check name; a name fails if any instance failed."""
    merged = {}
    for name, ok, detail in checks:
        prev = merged.get(name)
        if prev is None or (prev[0] and not ok):
            merged[name] = (ok, detail)
    return [(name, ok, detail) for name, (ok, detail) in merged.items()]


def main(argv=None):
    args = parse_args(argv)
    # SIGTERM unwinds like an exception: the service and the work
    # directory are cleaned up on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"ttebench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    section = "per_layer" if args.trace else "end_to_end"
    wanted = [m["name"] for m in spec[section]]
    units = {m["name"]: m["unit"] for m in spec[section]}

    workdir = os.path.join(WORKDIR, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        run, values = run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORKDIR) and not os.listdir(WORKDIR):
            os.rmdir(WORKDIR)

    missing = sorted(set(wanted) - set(values))
    extra = sorted(f"{n}:{values[n][1]}" for n in set(values) - set(wanted))
    wrong_unit = sorted(n for n in wanted
                        if n in values and values[n][1] != units[n])
    if missing or extra or wrong_unit:
        print(f"ttebench: metrics disagree with BENCHMARK.json: missing "
              f"{missing}, unlisted {extra}, unit {wrong_unit}",
              file=sys.stderr)
        return 3
    report(args, run, values, wanted)
    result = {"correct": run.correct, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {name: {"value": values[name][0],
                                 "unit": values[name][1]}
                          for name in wanted}}
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
