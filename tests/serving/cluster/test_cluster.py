"""ServingCluster core behaviour: correctness, batching, health."""

import json
import threading
import time

import pytest

from repro.obs import validate_metrics_snapshot
from repro.serving import ClusterConfig, ServingCluster, TravelTimeService
from repro.serving.cluster import synthetic_queries
from repro.trajectory import Query

from .conftest import sample_queries


def canonical(responses):
    return [json.dumps(r.to_dict(), sort_keys=True) for r in responses]


class TestCorrectness:
    def test_worker_count_invariance(self, cluster_factory,
                                     trained_predictor, serving_dataset):
        """Acceptance bar: for a fixed seed, results are byte-identical
        for any worker count (routing may differ, responses may not)."""
        service = TravelTimeService(predictor=trained_predictor,
                                    dataset=serving_dataset)
        queries = synthetic_queries(serving_dataset, 24, seed=3)
        expected = canonical(service.query_batch(queries))
        for workers in (1, 2, 3):
            cluster = cluster_factory(num_workers=workers)
            assert canonical(cluster.query_batch(queries)) == expected, \
                f"answers diverged at num_workers={workers}"

    def test_round_robin_same_answers(self, cluster_factory,
                                      serving_dataset):
        queries = synthetic_queries(serving_dataset, 12, seed=5)
        region = cluster_factory(num_workers=2, routing="region")
        rr = cluster_factory(num_workers=2, routing="round_robin")
        assert canonical(region.query_batch(queries)) == \
            canonical(rr.query_batch(queries))

    def test_query_single_and_legacy_forms(self, cluster_factory,
                                           serving_dataset):
        cluster = cluster_factory(num_workers=2)
        query = sample_queries(serving_dataset, 1)[0]
        a = cluster.query(query)
        b = cluster.query_batch([query])[0]
        assert a.to_dict() == b.to_dict()
        assert a.source == "model" and not a.degraded
        with pytest.raises(TypeError):      # the spread form is gone
            cluster.query(*query)

    def test_empty_batch(self, cluster_factory):
        assert cluster_factory(num_workers=2).query_batch([]) == []


class TestBatching:
    def test_submit_coalesces_across_threads(self, cluster_factory,
                                             serving_dataset,
                                             stall_batches):
        """Cross-connection batching: queries submitted from many
        threads reach the worker as multi-query batches."""
        stall_batches(0.02)
        cluster = cluster_factory(num_workers=1, max_batch=16)
        queries = synthetic_queries(serving_dataset, 32, seed=7)
        results = [None] * len(queries)

        def caller(i):
            results[i] = cluster.answer(queries[i])

        threads = [threading.Thread(target=caller, args=(i,))
                   for i in range(len(queries))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert all(r is not None for r in results)
        sizes = cluster.metrics.histogram("cluster.batch_size")
        assert sizes.summary()["max"] > 1, \
            "no two connections ever shared a batch"

    def test_submit_future_resolves(self, cluster_factory,
                                    serving_dataset):
        cluster = cluster_factory(num_workers=2)
        futures = [cluster.submit(q)
                   for q in sample_queries(serving_dataset, 6)]
        responses = [f.result(timeout=30) for f in futures]
        assert all(r.source == "model" for r in responses)


class TestLifecycle:
    def test_start_idempotent_stop_idempotent(self, artifact_dir,
                                              serving_dataset):
        cluster = ServingCluster(artifact_dir, dataset=serving_dataset,
                                 config=ClusterConfig(num_workers=1))
        try:
            assert cluster.start() is cluster
            cluster.start()
            assert cluster.query_batch(
                synthetic_queries(serving_dataset, 2, seed=0))
        finally:
            cluster.stop()
            cluster.stop()

    def test_requires_start(self, artifact_dir, serving_dataset):
        cluster = ServingCluster(artifact_dir, dataset=serving_dataset,
                                 config=ClusterConfig(num_workers=1))
        with pytest.raises(RuntimeError, match="start"):
            cluster.query_batch([Query((0.0, 0.0), (1.0, 1.0), 0.0)])

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_workers=0)
        with pytest.raises(ValueError):
            ClusterConfig(restart_limit=-1)
        with pytest.raises(ValueError):
            ClusterConfig(routing="nope")


class TestHealth:
    def test_health_pings_every_shard(self, cluster_factory, artifact_dir,
                                      serving_dataset):
        cluster = cluster_factory(num_workers=3)
        cluster.query_batch(synthetic_queries(serving_dataset, 9, seed=1))
        infos = cluster.health()
        assert len(infos) == 3
        pids = {info["pid"] for info in infos}
        assert len(pids) == 3, "shards must be distinct processes"
        import os
        for info in infos:
            assert info["alive"] is True
            assert info["swaps"] == 0
            assert info["version"] == os.path.realpath(artifact_dir)

    def test_health_snapshot_shape(self, cluster_factory):
        cluster = cluster_factory(num_workers=2)
        cluster.health()
        snap = cluster.health_snapshot()
        assert snap["workers"] == 2
        assert snap["healthy"] == 2
        assert snap["degraded"] is False
        assert len(snap["shards"]) == 2

    def test_metrics_snapshot_validates(self, cluster_factory,
                                        serving_dataset):
        cluster = cluster_factory(num_workers=2)
        cluster.query_batch(synthetic_queries(serving_dataset, 8, seed=2))
        snap = cluster.metrics_snapshot()
        assert snap["degraded"] is False
        assert snap["counters"]["cluster.queries_total"] == 8
        assert snap["histograms"]["cluster.latency_ms"]["count"] == 8
        assert "cluster.shards" in snap["gauges"]
        validate_metrics_snapshot(snap)

    def test_batch_latency_is_the_batch_wall(self, cluster_factory,
                                             serving_dataset):
        # As in TravelTimeService.query_batch: every query of a
        # synchronous batch waits for the whole batch.
        cluster = cluster_factory(num_workers=1)
        queries = synthetic_queries(serving_dataset, 32, seed=4)
        start = time.perf_counter()
        cluster.query_batch(queries)
        wall_ms = (time.perf_counter() - start) * 1000.0
        hist = cluster.metrics.histogram("cluster.latency_ms")
        assert hist.count == 32
        assert hist.percentile(100) >= 0.5 * wall_ms
