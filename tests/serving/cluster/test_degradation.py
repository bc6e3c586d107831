"""Graceful degradation: load shedding, crashes, TEMP fallback.

Satellite coverage for the ISSUE's degradation story — a saturated
shard sheds with ``SaturatedError`` (or absorbs into the fallback), a
crashed worker restarts transparently, and a shard past its restart
budget serves degraded TEMP answers instead of failing, including
under concurrent load with the crash landing mid-stream.
"""

import os
import signal
import threading
import time

import pytest

from repro.serving import SaturatedError
from repro.serving.cluster import synthetic_queries

from .conftest import sample_queries


def _shard_pids(cluster):
    return {info["shard"]: info["pid"] for info in cluster.health()}


class TestSaturation:
    def test_submit_sheds_with_saturated_error(self, cluster_factory,
                                               serving_dataset,
                                               stall_batches):
        # One slow worker (200ms/batch), a 2-deep admission queue:
        # rapid-fire submits must overflow it.
        stall_batches(0.2)
        cluster = cluster_factory(num_workers=1, max_pending=2,
                                  max_batch=4)
        queries = synthetic_queries(serving_dataset, 24, seed=11)
        futures, errors = [], []
        for query in queries:
            try:
                futures.append(cluster.submit(query))
            except SaturatedError as exc:
                errors.append(exc)
        assert errors, "queue never saturated"
        assert all(e.retry_after_s > 0 for e in errors)
        # Everything admitted still completes, nothing is dropped.
        responses = [f.result(timeout=60) for f in futures]
        assert all(r.seconds > 0 for r in responses)
        snap = cluster.metrics_snapshot()
        assert snap["counters"]["cluster.saturated_rejections"] == \
            len(errors)

    def test_saturation_fallback_degrades_instead(self, cluster_factory,
                                                  serving_dataset,
                                                  stall_batches):
        stall_batches(0.2)
        cluster = cluster_factory(num_workers=1, max_pending=2,
                                  max_batch=4, saturation_fallback=True)
        queries = synthetic_queries(serving_dataset, 24, seed=13)
        futures = [cluster.submit(q) for q in queries]
        responses = [f.result(timeout=60) for f in futures]
        shed = [r for r in responses if r.degraded]
        served = [r for r in responses if not r.degraded]
        assert shed, "queue never saturated"
        assert all(r.source == "fallback" for r in shed)
        assert all(r.source == "model" for r in served)


class TestCrashRecovery:
    def test_worker_crash_restarts_and_answers(self, cluster_factory,
                                               serving_dataset):
        # Round robin so both shards are guaranteed traffic after the
        # kill (region routing could skip the dead shard by luck).
        cluster = cluster_factory(num_workers=2, routing="round_robin",
                                  dispatch_timeout_s=10.0)
        before = _shard_pids(cluster)
        os.kill(before[0], signal.SIGKILL)
        time.sleep(0.1)
        responses = cluster.query_batch(
            synthetic_queries(serving_dataset, 16, seed=17))
        assert all(not r.degraded for r in responses), \
            "a restarted shard must answer from the model, not fallback"
        snap = cluster.metrics_snapshot()
        assert snap["counters"]["cluster.worker_restarts"] >= 1
        after = _shard_pids(cluster)
        assert after[0] != before[0]
        assert after[1] == before[1], "healthy shard must not be touched"

    def test_restart_budget_exhausted_serves_fallback(self,
                                                      cluster_factory,
                                                      serving_dataset):
        cluster = cluster_factory(num_workers=1, restart_limit=0,
                                  dispatch_timeout_s=10.0)
        os.kill(_shard_pids(cluster)[0], signal.SIGKILL)
        time.sleep(0.1)
        responses = cluster.query_batch(
            synthetic_queries(serving_dataset, 6, seed=19))
        assert all(r.degraded and r.source == "fallback"
                   for r in responses)
        assert all(r.lower < r.seconds < r.upper for r in responses)
        assert cluster.degraded is True
        assert cluster.metrics_snapshot()["degraded"] is True
        snap = cluster.health_snapshot()
        assert snap["healthy"] == 0
        assert snap["degraded"] is True

    def test_degraded_flag_propagates_under_concurrent_load(
            self, cluster_factory, serving_dataset):
        """Threads hammer one cluster while its only worker is killed
        past its restart budget mid-stream: every request completes —
        model answers before the crash, degraded TEMP answers after —
        and none raises."""
        cluster = cluster_factory(num_workers=1, restart_limit=0,
                                  max_pending=0, dispatch_timeout_s=10.0)
        pid = _shard_pids(cluster)[0]
        queries = sample_queries(serving_dataset, 8)
        stop = threading.Event()
        responses, failures = [], []
        lock = threading.Lock()

        def hammer(i):
            while not stop.is_set():
                try:
                    response = cluster.answer(queries[i % len(queries)])
                    with lock:
                        responses.append(response)
                except Exception as exc:   # any error fails the test
                    with lock:
                        failures.append(exc)
                    return

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.3)
        os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            with lock:
                if any(r.degraded for r in responses):
                    break
            time.sleep(0.05)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)

        assert not failures, f"requests failed during crash: {failures!r}"
        assert any(not r.degraded for r in responses), \
            "expected model answers before the crash"
        degraded = [r for r in responses if r.degraded]
        assert degraded, "expected degraded answers after the crash"
        assert all(r.source == "fallback" for r in degraded)
        assert cluster.degraded is True


class TestDispatchTimeout:
    def test_hung_worker_is_replaced(self, cluster_factory,
                                     serving_dataset, stall_batches):
        # A stall far past the dispatch timeout looks like a hang; the
        # dispatcher must give up, restart the shard, and still answer.
        stall_batches(2.0)
        cluster = cluster_factory(num_workers=1, dispatch_timeout_s=0.3,
                                  restart_limit=0)
        responses = cluster.query_batch(
            sample_queries(serving_dataset, 2))
        assert all(r.degraded for r in responses)

    def test_invalid_timeout_rejected(self):
        from repro.serving import ClusterConfig
        with pytest.raises(ValueError):
            ClusterConfig(dispatch_timeout_s=0.0)
