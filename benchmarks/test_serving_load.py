"""Serving-cluster load test: multi-worker overlap, SLOs, saturation.

The paper's deployment regime (Table 5) is a map-service backend
answering a city's OD queries under a latency budget.  This bench
drives the sharded :class:`~repro.serving.ServingCluster` and lands the
results in ``BENCH_serving.json`` at the repo root (checked by
``benchmarks.benchfile``), so the serving perf trajectory is visible
across PRs:

* **overlap** — multi-worker scaling with a fixed per-batch stall
  standing in for model latency (the ``test_sweep_parallel`` pattern:
  honest on a single-core CI box, where CPU-bound scaling is
  impossible by construction).  The stall is injected here, by
  wrapping the worker's batch answer before the cluster forks.  This
  is the asserted floor: a 4-worker cluster must overlap to >= 2x one
  worker's throughput.
* **model** — real-model saturation throughput of a model that reads
  the traffic condition (so every process serves its D_traf table),
  single process vs the cluster, recorded always and asserted only on
  >= 4 cores (where the forked workers have hardware to scale onto).
* **open_loop** — controlled-RPS replay: p50/p95/p99 completion
  latency through ``repro.obs.metrics``; zero failed requests.
"""

import time
from pathlib import Path

import pytest

from repro.core import DeepODTrainer, TravelTimePredictor, build_deepod
from repro.datagen import DatasetSpec, build
from repro.obs import MetricsRegistry, validate_metrics_snapshot
from repro.serving import ClusterConfig, ServingCluster, save_artifact
from repro.serving.cluster import run_load_test, synthetic_queries
from repro.serving.cluster.worker import _WorkerState

from .benchfile import write
from .conftest import BenchParams, print_header, small_deepod_config

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving.json"

WORKERS = 4
STALL_MS = 50.0
OVERLAP_FLOOR = 2.0
# Not scaled: each shard must run enough batches that its first one (a
# lone query, answered at once) does not decide the ratio.
OVERLAP_QUERIES = 256
MODEL_FLOOR = 2.0     # asserted only with >= 4 cores to scale onto


@pytest.fixture(scope="module")
def load_artifact_dir(tmp_path_factory):
    """A small trained serving artifact that reads the speed matrices
    (plus its dataset, to skip regeneration in the harness)."""
    params = BenchParams.from_env()
    dataset = build(DatasetSpec("mini-chengdu",
                        num_trips=max(int(800 * params.scale), 200),
                        num_days=7))
    config = small_deepod_config(params, epochs=1,
                                 use_external_features=True)
    model = build_deepod(dataset, config)
    trainer = DeepODTrainer(model, dataset, eval_every=0)
    trainer.fit(track_validation=False)
    predictor = TravelTimePredictor(trainer)
    directory = tmp_path_factory.mktemp("serving_artifact")
    return save_artifact(str(directory / "v1"), predictor), dataset


def submit_throughput(cluster, queries) -> float:
    """Closed-loop q/s of the ``submit`` path: every query is enqueued
    up front and the per-shard micro-batchers pipeline batches through
    the workers until the backlog drains."""
    start = time.perf_counter()
    futures = [cluster.submit(q) for q in queries]
    for future in futures:
        future.result(timeout=300)
    return len(queries) / (time.perf_counter() - start)


def measure_overlap(artifact, dataset, queries) -> dict:
    """Submit throughput of 1 vs ``WORKERS`` round-robin workers whose
    every batch first sleeps ``STALL_MS``."""
    answer = _WorkerState.answer

    def stalled(self, rows):
        time.sleep(STALL_MS / 1000.0)
        return answer(self, rows)

    overlap = {"workers": WORKERS, "stall_ms": STALL_MS,
               "floor": OVERLAP_FLOOR, "queries": len(queries)}
    with pytest.MonkeyPatch.context() as patch:
        # Workers fork from this process, so they inherit the patch.
        patch.setattr(_WorkerState, "answer", stalled)
        for key, num in (("single", 1), ("cluster", WORKERS)):
            cluster = ServingCluster(
                artifact, dataset=dataset,
                config=ClusterConfig(num_workers=num,
                                     routing="round_robin", max_batch=16))
            cluster.start()
            try:
                overlap[f"{key}_qps"] = submit_throughput(cluster, queries)
            finally:
                cluster.stop()
    overlap["speedup"] = overlap["cluster_qps"] / overlap["single_qps"]
    return overlap


def test_serving_load(load_artifact_dir):
    artifact, dataset = load_artifact_dir
    params = BenchParams.from_env()
    queries = max(int(256 * params.scale), 128)
    registry = MetricsRegistry()

    overlap = measure_overlap(
        artifact, dataset,
        synthetic_queries(dataset, OVERLAP_QUERIES, seed=0))
    report = run_load_test(
        artifact, dataset=dataset, workers=WORKERS, queries=queries,
        rps=150.0, seed=0, metrics=registry)
    model, open_loop = report["model"], report["open_loop"]
    latency = open_loop["latency_ms"]

    print_header("Serving cluster — load test")
    print(f"queries {queries}, workers {WORKERS}, cpus {report['cpus']}")
    print(f"overlap ({STALL_MS:.0f}ms stall): "
          f"{overlap['single_qps']:8.1f} qps single  "
          f"{overlap['cluster_qps']:8.1f} qps cluster  "
          f"{overlap['speedup']:5.2f}x (floor {OVERLAP_FLOOR:.1f}x)")
    print(f"model saturation:  {model['single_qps']:8.1f} qps single  "
          f"{model['cluster_qps']:8.1f} qps cluster  "
          f"{model['speedup']:5.2f}x")
    print(f"open loop @ {open_loop['rps_target']:.0f} rps: "
          f"p50 {latency['p50']:6.1f}ms  p95 {latency['p95']:6.1f}ms  "
          f"p99 {latency['p99']:6.1f}ms  shed {open_loop['shed']}  "
          f"failed {open_loop['failed']}")
    validate_metrics_snapshot(registry.snapshot())

    # The load is all answerable: nothing failed, nothing degraded.
    assert open_loop["failed"] == 0
    assert open_loop["degraded"] == 0
    assert model["degraded"] == 0

    # The asserted scaling floor: worker overlap on fixed-duration
    # batches, which holds on any core count.
    assert overlap["speedup"] >= OVERLAP_FLOOR, (
        f"{WORKERS}-worker overlap {overlap['speedup']:.2f}x below the "
        f"{OVERLAP_FLOOR:.1f}x floor "
        f"({overlap['single_qps']:.1f} -> {overlap['cluster_qps']:.1f} qps)")

    # Real-model scaling needs real cores; below 4 the number is
    # recorded in BENCH_serving.json but not asserted.
    if report["cpus"] >= 4:
        assert model["speedup"] >= MODEL_FLOOR, (
            f"{WORKERS}-worker model saturation {model['speedup']:.2f}x "
            f"below the {MODEL_FLOOR:.1f}x floor on "
            f"{report['cpus']} cores")

    write(RESULTS_PATH, {
        "bench": "serving_load",
        "schema": "repro.bench.serving/v1",
        "created_unix": time.time(),  # repro: allow[D003] benchmark-result timestamp for cross-PR trend reading, not a deterministic code path
        "overlap": overlap,
        **report,
    })
