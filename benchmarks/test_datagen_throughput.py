"""Datagen pipeline bench: out-of-core memory, Viterbi and pool speedups.

Four measurements, one fail-closed JSON:

* **memory** — a mega-chengdu build is run twice in fresh subprocesses
  (peak RSS is per-process and monotonic, so each variant needs its own
  process): once fully in RAM, once chunked to an on-disk dataset
  directory.  The chunked build's peak-RSS delta must stay under half
  the in-memory build's — the point of the out-of-core path.
* **viterbi** — the vectorised Viterbi kernel vs the retained scalar
  reference, timed over precomputed candidate columns (candidate
  generation is shared and excluded).  Floor 3x at full scale, 2x
  reduced; the decoded state sequences must be identical.
* **parallel** — ``match_many`` at 4 workers vs serial.  CI boxes are
  often single-core, so the default measurement injects a fixed
  per-trip stall (mirroring the serving load harness's overlap probe):
  the pool must overlap stalls for >= 2x.  With >= 4 real cores the
  bench instead times the real matcher (mode "real").
* **fingerprint_equal** — a chunked build must fingerprint identically
  to the one-shot build (byte-identity is the pipeline's contract).

Results land in ``BENCH_datagen.json`` (schema
``repro.bench.datagen/v1``, checked by ``benchmarks.benchfile``).
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.datagen import DatasetSpec, build, dataset_fingerprint
from repro.mapmatching import HMMMapMatcher, match_many
from repro.mapmatching.candidates import candidates_for_trajectory
from repro.roadnet import grid_city

from .benchfile import write
from .conftest import bench_scale, print_header

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_datagen.json"

# Self-reporting build probe: prints peak-RSS delta (KB on Linux) and
# wall seconds for one build variant.  getrusage peak is process-wide
# and never shrinks, which is exactly what we want to compare.
_PROBE = """
import json, resource, sys, time
from repro.datagen import DatasetSpec, build

spec = DatasetSpec(**json.loads(sys.argv[1]))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
t0 = time.perf_counter()
dataset = build(spec)
elapsed = time.perf_counter() - t0
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"rss_delta_kb": after - before,
                  "build_s": elapsed,
                  "trips": len(dataset.trips)}))
"""


def _run_probe(spec_kwargs: dict) -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(spec_kwargs)],
        capture_output=True, text=True, env=env, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _synth_traces(net, count, seed=0, steps=30):
    """Drivable GPS traces over random walks of the grid.

    Viterbi cost is per-fix, so the default walks are long — short
    traces would measure call overhead instead of the kernels.
    """
    from tests.mapmatching.test_hmm import synthesize_gps
    rng = np.random.default_rng(seed)
    traces = []
    for k in range(count):
        path = [int(rng.integers(net.num_edges))]
        for _ in range(steps):
            succ = net.successors(path[-1])
            if not succ:
                break
            path.append(int(rng.choice([e.edge_id for e in succ])))
        traces.append(synthesize_gps(net, path, seed=seed + k,
                                     noise=4.0))
    return traces


class _StallMatcher(HMMMapMatcher):
    """Matcher with a fixed per-trip stall: makes the pool's overlap
    measurable on a single-core box (the real matcher's speedup there
    is bounded by the one core)."""

    STALL_S = 0.1

    def match(self, traj):
        time.sleep(self.STALL_S)
        return super().match(traj)


def test_datagen_pipeline_bench(tmp_path):
    scale = bench_scale()

    # -- memory: RAM vs chunked-disk build of the same mega preset -----
    trips = int(4000 * min(scale, 4.0))
    days = 2
    chunk = 512
    ram = _run_probe({"city": "mega-chengdu", "num_trips": trips,
                      "num_days": days})
    disk = _run_probe({"city": "mega-chengdu", "num_trips": trips,
                      "num_days": days, "chunk_size": chunk,
                      "storage": "disk",
                      "out_dir": str(tmp_path / "mega")})
    ratio = disk["rss_delta_kb"] / max(ram["rss_delta_kb"], 1)
    trips_per_s = trips / disk["build_s"]

    # -- viterbi: vectorized kernel vs scalar reference oracle ---------
    net = grid_city(10, 10, seed=0, oneway_fraction=0.0,
                    removal_fraction=0.0, jitter=0.05)
    matcher = HMMMapMatcher(net)
    traces = _synth_traces(net, count=int(12 * min(scale, 4.0)) or 4)
    columns = [candidates_for_trajectory(
        matcher.index, t.points, matcher.config.radius,
        matcher.config.max_candidates) for t in traces]

    def run_engine(name):
        states, best = [], None
        fn = (matcher._viterbi_vectorized if name == "vectorized"
              else matcher._viterbi_reference)
        for _ in range(2):          # best-of-2: single-core jitter
            t0 = time.perf_counter()
            states = [fn(t.points, cols)
                      for t, cols in zip(traces, columns)]
            elapsed = time.perf_counter() - t0
            best = elapsed if best is None else min(best, elapsed)
        return states, best

    ref_states, ref_s = run_engine("reference")
    vec_states, vec_s = run_engine("vectorized")
    paths_identical = ref_states == vec_states
    viterbi_speedup = ref_s / vec_s
    viterbi_floor = 3.0 if scale >= 1.0 else 2.0

    # -- parallel: match_many 4 workers vs serial ----------------------
    cores = len(os.sched_getaffinity(0))
    mode = "real" if cores >= 4 else "stall"
    pool_matcher = (HMMMapMatcher(net) if mode == "real"
                    else _StallMatcher(net))
    # Stall mode: cheap short traces, so the injected stall (which the
    # pool can overlap even on one core) dominates the wall time.
    pool_traces = (_synth_traces(net, count=8, seed=99, steps=4)
                   if mode == "stall" else traces)
    t0 = time.perf_counter()
    serial = match_many(pool_matcher, pool_traces, jobs=1)
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = match_many(pool_matcher, pool_traces, jobs=4)
    parallel_s = time.perf_counter() - t0
    assert [r.ok for r in serial] == [r.ok for r in parallel]
    pool_speedup = serial_s / parallel_s

    # -- parity: chunked build == one-shot build -----------------------
    oneshot = build(DatasetSpec("mini-chengdu", num_trips=80, num_days=2))
    chunked = build(DatasetSpec("mini-chengdu", num_trips=80, num_days=2,
                                chunk_size=16))
    fingerprint_equal = (dataset_fingerprint(oneshot)
                         == dataset_fingerprint(chunked))

    payload = {
        "schema": "repro.bench.datagen/v1",
        "bench": "datagen_pipeline",
        "scale": scale,
        "workload": {"city": "mega-chengdu", "trips": trips,
                     "days": days, "chunk_size": chunk},
        "throughput": {"trips_per_s": trips_per_s,
                       "build_s": disk["build_s"], "floor": 40.0},
        "memory": {"ram_peak_delta_kb": ram["rss_delta_kb"],
                   "disk_peak_delta_kb": disk["rss_delta_kb"],
                   "ratio": ratio, "ceiling": 0.5},
        "viterbi": {"reference_s": ref_s, "vectorized_s": vec_s,
                    "speedup": viterbi_speedup, "floor": viterbi_floor,
                    "trips": len(traces),
                    "paths_identical": bool(paths_identical)},
        "parallel": {"jobs": 4, "serial_s": serial_s,
                     "parallel_s": parallel_s, "speedup": pool_speedup,
                     "floor": 2.0, "mode": mode},
        "fingerprint_equal": bool(fingerprint_equal),
    }

    print_header("Datagen pipeline bench")
    print(f"  build (mega-chengdu x{trips}): "
          f"{trips_per_s:.0f} trips/s to disk")
    print(f"  peak RSS delta: ram {ram['rss_delta_kb'] / 1024:.0f}MB, "
          f"disk {disk['rss_delta_kb'] / 1024:.0f}MB "
          f"(ratio {ratio:.2f}, ceiling 0.50)")
    print(f"  viterbi: reference {ref_s * 1e3:.0f}ms, "
          f"vectorized {vec_s * 1e3:.0f}ms "
          f"({viterbi_speedup:.2f}x, floor {viterbi_floor:.1f}x, "
          f"paths identical: {paths_identical})")
    print(f"  match_many 4 workers ({mode}): "
          f"{serial_s:.2f}s -> {parallel_s:.2f}s "
          f"({pool_speedup:.2f}x, floor 2.0x)")

    write(RESULTS_PATH, payload)        # fail-closed: floors + parity
    print(f"  wrote {RESULTS_PATH.name}")
