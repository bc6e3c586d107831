#!/usr/bin/env python3
"""The full serving stack: artifact -> service -> batching + fallback.

Trains a small DeepOD, persists it as a self-contained serving artifact
(weights + config + calibration + dataset fingerprint), reloads it into
a :class:`TravelTimeService` with *no retraining*, and exercises the
production machinery: micro-batched queries, cache accounting, injected
model failure with graceful degradation, and the metrics snapshot.

Run:  python examples/serving_service.py
"""

import json
import tempfile

from repro.core import DeepODConfig, DeepODTrainer, TravelTimePredictor, \
    build_deepod
from repro.datagen import DatasetSpec, build
from repro.serving import (
    ServiceConfig, TravelTimeService, load_artifact, save_artifact,
)
from repro.temporal import SECONDS_PER_DAY
from repro.trajectory import Query


def main() -> None:
    print("Training a small DeepOD on mini-chengdu...")
    dataset = build(DatasetSpec("mini-chengdu", num_trips=800, num_days=7))
    config = DeepODConfig(
        d_s=16, d_t=16, d1_m=32, d2_m=16, d3_m=32, d4_m=16,
        d5_m=32, d6_m=16, d7_m=32, d9_m=32, d_h=32, d_traf=16,
        epochs=2, batch_size=64, aux_weight=0.3,
        use_external_features=False, seed=0)
    model = build_deepod(dataset, config)
    trainer = DeepODTrainer(model, dataset, eval_every=0)
    trainer.fit(track_validation=False)
    predictor = TravelTimePredictor(trainer, coverage=0.8)

    with tempfile.TemporaryDirectory() as tmp:
        artifact = save_artifact(f"{tmp}/model", predictor)
        print(f"artifact saved to {artifact}")

        # Reload: weights, config, calibration, speed matrices and the
        # TEMP table all come from the artifact; the dataset we hold is
        # only fingerprint-checked and attached as the trip side.
        restored = load_artifact(artifact, dataset=dataset)
        service = TravelTimeService(
            restored, config=ServiceConfig(max_batch=64)).start()

        min_x, min_y, max_x, max_y = dataset.net.bounding_box()
        origin = (min_x + 0.2 * (max_x - min_x),
                  min_y + 0.3 * (max_y - min_y))
        dest = (min_x + 0.8 * (max_x - min_x),
                min_y + 0.7 * (max_y - min_y))
        day = 5 * SECONDS_PER_DAY

        print("\nmicro-batched queries (one OD pair across the day):")
        futures = [service.submit(Query(origin, dest, day + h * 3600.0))
                   for h in (3, 8, 12, 18, 22)]
        for hour, future in zip((3, 8, 12, 18, 22), futures):
            r = future.result(timeout=30)
            print(f"  {hour:2d}h  {r.seconds:7.0f}s  "
                  f"[{r.lower:6.0f}, {r.upper:6.0f}]  source={r.source}")
        service.stop()

        # Same query again: the map-match cache answers the snapping.
        service.query(Query(origin, dest, day))
        print(f"\nod-match cache: {service.od_cache.stats()}")

        # Injected model failure -> graceful degradation.
        service.predictor.estimate_from_ods = _explode
        degraded = service.query(Query(origin, dest, day + 8 * 3600.0))
        print(f"after injected failure: source={degraded.source} "
              f"degraded={degraded.degraded} "
              f"estimate={degraded.seconds:.0f}s")

        print("\nmetrics snapshot:")
        print(json.dumps(service.metrics_snapshot(), indent=2,
                         sort_keys=True))


def _explode(*args, **kwargs):
    raise RuntimeError("injected model failure")


if __name__ == "__main__":
    main()
