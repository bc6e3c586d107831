"""Hot model swap: promotion-gate symlink flips under live traffic.

The acceptance bar from the ISSUE: a promotion-gate model swap drops
zero requests.  Workers watch the realpath of ``<deploy>/current``;
the gate's atomic symlink replace flips every shard to the new version
between batches, and a broken candidate can never displace a serving
model (fail-closed reload).

The two deployed versions here share weights but differ in
``calibration.json`` (which is deliberately outside the artifact
checksum), so the swap is *observable*: the confidence band around the
same point estimate changes when — and only when — a shard picks up
the new version.
"""

import json
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro.atomic import swap_symlink
from repro.core import DeepODTrainer, TravelTimePredictor, build_deepod
from repro.datagen import DatasetSpec, build
from repro.datagen.trips import TripGenerator
from repro.experiments import promote
from repro.serving import (
    ClusterConfig, ServingCluster, TravelTimeService, load_artifact,
    save_artifact,
)
from repro.serving import artifact as artifact_mod
from repro.serving.cluster import synthetic_queries
from repro.serving.cluster.worker import (
    _WorkerState, row_to_response, worker_main,
)

from ..conftest import TINY_CFG, TINY_DAYS, TINY_TRIPS, external_predictor


def _save_generation(directory, predictor, run_id, band_scale=1.0):
    """An artifact stamped ``run_id``; optionally widened bands so the
    generation is visible in responses."""
    path = save_artifact(str(directory), predictor,
                         extra_manifest={"run_id": run_id})
    if band_scale != 1.0:
        calib_path = os.path.join(path, "calibration.json")
        with open(calib_path) as handle:
            calibration = json.load(handle)
        calibration["lo_quantile"] *= band_scale
        calibration["hi_quantile"] *= band_scale
        with open(calib_path, "w") as handle:
            json.dump(calibration, handle)
    return path


@pytest.fixture()
def deployment(tmp_path, trained_predictor, serving_dataset):
    """A deploy root with generation 1 promoted as ``current``."""
    gen1 = _save_generation(tmp_path / "cand1", trained_predictor,
                            "gen-1")
    deploy = tmp_path / "deploy"
    decision = promote(gen1, str(deploy), dataset=serving_dataset)
    assert decision.promoted, decision.reasons
    return deploy


def _versions(cluster):
    return {info["shard"]: info["version"] for info in cluster.health()}


class TestHotSwap:
    def test_zero_dropped_requests_across_swap(self, deployment, tmp_path,
                                               trained_predictor,
                                               serving_dataset,
                                               monkeypatch, stall_batches):
        # A swap reloads from the serving-state bundle: trip generation
        # raises here and in the forked workers, which inherit the patch.
        def no_trips(*args, **kwargs):
            raise AssertionError("trip generation during a swap")
        monkeypatch.setattr(artifact_mod, "build", no_trips)
        monkeypatch.setattr(TripGenerator, "generate_chunks", no_trips)
        stall_batches(0.005)
        current = str(deployment / "current")
        cluster = ServingCluster(
            current, dataset=serving_dataset,
            config=ClusterConfig(num_workers=2))
        cluster.start()
        try:
            queries = synthetic_queries(serving_dataset, 8, seed=23)
            probe = queries[0]
            band_before = cluster.query(probe).upper

            stop = threading.Event()
            failures, answered = [], []
            lock = threading.Lock()

            def hammer(i):
                while not stop.is_set():
                    try:
                        response = cluster.answer(
                            queries[i % len(queries)])
                        with lock:
                            answered.append(response)
                    except Exception as exc:
                        with lock:
                            failures.append(exc)
                        return

            threads = [threading.Thread(target=hammer, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            time.sleep(0.2)      # traffic in flight before the flip

            gen2 = _save_generation(tmp_path / "cand2",
                                    trained_predictor, "gen-2",
                                    band_scale=2.0)
            decision = promote(gen2, str(deployment),
                               dataset=serving_dataset)
            assert decision.promoted, decision.reasons
            new_real = os.path.realpath(current)

            # Pings double as swap triggers for idle shards; busy ones
            # pick the flip up between batches.
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                if all(v == new_real for v in _versions(cluster).values()):
                    break
                time.sleep(0.05)
            mid_swap_count = len(answered)
            time.sleep(0.2)      # traffic on the new model
            stop.set()
            for thread in threads:
                thread.join(timeout=30)

            assert not failures, \
                f"requests dropped across the swap: {failures!r}"
            assert mid_swap_count > 0, "no traffic overlapped the swap"
            assert len(answered) > mid_swap_count, \
                "no traffic followed the swap"
            assert all(not r.degraded for r in answered)

            infos = cluster.health()
            assert all(info["version"] == new_real for info in infos)
            assert sum(info["swaps"] for info in infos) >= 1
            assert all(info["swap_failures"] == 0 for info in infos)

            # The swap is observable: generation 2's doubled band.
            band_after = cluster.query(probe).upper
            assert band_after != band_before
        finally:
            cluster.stop()

    def test_swap_to_another_datasets_model_is_refused(self, deployment,
                                                       tmp_path,
                                                       serving_dataset):
        other = build(DatasetSpec("mini-chengdu", num_trips=TINY_TRIPS + 10,
                                  num_days=TINY_DAYS))
        config = TINY_CFG.with_overrides(init_road_embedding="onehot",
                                         init_slot_embedding="onehot")
        trainer = DeepODTrainer(build_deepod(other, config), other,
                                eval_every=0)
        foreign = save_artifact(
            str(deployment / "versions" / "foreign"),
            TravelTimePredictor(trainer, quantiles=(0.7, 1.4)))
        current = str(deployment / "current")
        cluster = ServingCluster(
            current, dataset=serving_dataset,
            config=ClusterConfig(num_workers=1))
        cluster.start()
        try:
            old_real = os.path.realpath(current)
            swap_symlink(current, os.path.relpath(foreign, deployment))
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                info = cluster.health()[0]
                if info.get("swap_failures", 0) >= 1:
                    break
                time.sleep(0.05)
            assert info["swap_failures"] >= 1
            assert info["swaps"] == 0
            assert info["version"] == old_real
        finally:
            cluster.stop()

    def test_failed_swap_keeps_old_model_serving(self, deployment,
                                                 serving_dataset):
        current = str(deployment / "current")
        cluster = ServingCluster(
            current, dataset=serving_dataset,
            config=ClusterConfig(num_workers=1))
        cluster.start()
        try:
            old_real = os.path.realpath(current)

            # Flip ``current`` to a broken candidate the same way the
            # gate does (atomic replace), bypassing its validation.
            broken = os.path.join(str(deployment), "versions", "broken")
            os.makedirs(broken, exist_ok=True)
            tmp_link = current + ".tmp-test"
            os.symlink(os.path.join("versions", "broken"), tmp_link)
            os.replace(tmp_link, current)

            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                info = cluster.health()[0]
                if info.get("swap_failures", 0) >= 1:
                    break
                time.sleep(0.05)
            assert info["swap_failures"] >= 1, \
                "worker never attempted the (doomed) reload"
            assert info["swaps"] == 0
            assert info["version"] == old_real

            # Fail-closed: the old model still answers, undegraded.
            responses = cluster.query_batch(
                synthetic_queries(serving_dataset, 4, seed=29))
            assert all(r.source == "model" and not r.degraded
                       for r in responses)
        finally:
            cluster.stop()


def test_spawned_worker_serves_from_the_bundle(artifact_dir, serving_dataset,
                                               monkeypatch):
    """``worker_main`` with nothing inherited (the spawn start method)
    loads the artifact itself: from its bundle, with no trip generated.
    Driven over a pipe from a thread, so no process is started."""
    def no_trips(*args, **kwargs):
        raise AssertionError("trip generation in a spawned worker")
    monkeypatch.setattr(artifact_mod, "build", no_trips)
    monkeypatch.setattr(TripGenerator, "generate_chunks", no_trips)
    queries = synthetic_queries(serving_dataset, 8, seed=31)
    parent, child = multiprocessing.Pipe(duplex=True)
    worker = threading.Thread(
        target=worker_main,
        args=(child, 0, artifact_dir, None))
    worker.start()
    try:
        parent.send(("batch", [tuple(q) for q in queries]))
        kind, rows = parent.recv()
    finally:
        parent.send(("stop",))
        worker.join(timeout=30)
    assert not worker.is_alive()
    assert kind == "ok", rows
    expected = TravelTimeService(load_artifact(
        artifact_dir, dataset=serving_dataset)).query_batch(queries)
    assert [row_to_response(r) for r in rows] == expected


def test_swap_after_a_rejected_push_keeps_the_live_slices(tmp_path,
                                                          serving_dataset):
    """A rejected speeds push leaves nothing behind, and the next hot
    swap hands the slices pushed before it to the new service.  Runs
    in process on one worker's state, with two artifacts of one model
    that reads the speed matrices."""
    predictor = external_predictor(serving_dataset, seed=0)
    gen1 = _save_generation(tmp_path / "gen1", predictor, "gen-1")
    gen2 = _save_generation(tmp_path / "gen2", predictor, "gen-2")
    current = str(tmp_path / "current")
    os.symlink(gen1, current)
    state = _WorkerState(0, current, os.path.realpath(current),
                         load_artifact(gen1))
    queries = synthetic_queries(serving_dataset, 8, seed=37)
    store = state.service.speed_store
    valid = {int(p): store.matrix_at(p) * 0.5 for p in
             store.periods_before([q.depart_time for q in queries])}
    assert state.service.apply_live_speeds(valid) == len(valid)
    with pytest.raises(ValueError, match="shape"):
        state.service.apply_live_speeds({0: np.ones((1, 1))})

    swap_symlink(current, gen2)
    try:
        assert state.maybe_reload()
        assert (state.swaps, state.swap_failures) == (1, 0)
        assert state.version == os.path.realpath(gen2)
        fresh = TravelTimeService(load_artifact(gen2,
                                                dataset=serving_dataset))
        stale = fresh.query_batch(queries)
        fresh.apply_live_speeds(valid)
        served = state.service.query_batch(queries)
        assert all(r.source == "model" for r in served)
        assert served == fresh.query_batch(queries)
        assert served != stale

        live = state.service.speed_store
        assert live is not store
        assert live.live_periods == sorted(valid)
        for period, matrix in valid.items():
            assert np.array_equal(live.matrix_at(period), matrix)
    finally:
        state.service.dataset.close()
