#!/usr/bin/env python3
"""Serving-style usage: raw coordinate queries with confidence bands.

Trains DeepOD once, wraps it in :class:`TravelTimePredictor`, then
answers ride-hailing-style queries — raw origin/destination coordinates
plus a departure time — with point estimates and calibrated 80% bands.

Run:  python examples/serving_predictor.py
"""

import numpy as np

from repro.core import (
    DeepODConfig, DeepODTrainer, TravelTimePredictor, build_deepod,
)
from repro.datagen import DatasetSpec, build
from repro.temporal import SECONDS_PER_DAY
from repro.trajectory import Query


def main() -> None:
    print("Building mini-chengdu and training DeepOD...")
    dataset = build(DatasetSpec("mini-chengdu", num_trips=1500, num_days=14))
    config = DeepODConfig(
        d_s=32, d_t=16, d1_m=32, d2_m=16, d3_m=32, d4_m=16,
        d5_m=32, d6_m=16, d7_m=32, d9_m=32, d_h=32, d_traf=16,
        epochs=8, batch_size=64, aux_weight=0.3, lr_decay_epochs=4,
        use_external_features=False, seed=0)
    model = build_deepod(dataset, config)
    trainer = DeepODTrainer(model, dataset, eval_every=0)
    trainer.fit(track_validation=False)

    predictor = TravelTimePredictor(trainer, coverage=0.8)
    print(f"calibrated 80% band; measured test coverage "
          f"{100 * predictor.band_coverage_on_test():.0f}%\n")

    # Queries: same OD pair at different times of a weekday — the core
    # scenario of the paper (departure time changes travel time).
    min_x, min_y, max_x, max_y = dataset.net.bounding_box()
    origin = (min_x + 0.2 * (max_x - min_x), min_y + 0.3 * (max_y - min_y))
    dest = (min_x + 0.8 * (max_x - min_x), min_y + 0.7 * (max_y - min_y))
    day = 8 * SECONDS_PER_DAY     # a Tuesday in week 2

    print(f"query: {origin[0]:.0f},{origin[1]:.0f} -> "
          f"{dest[0]:.0f},{dest[1]:.0f}")
    print(f"{'depart':>8}{'estimate':>12}{'80% band':>22}")
    for hour in (3, 8, 12, 18, 22):
        est = predictor.estimate(Query(origin, dest, day + hour * 3600.0))
        print(f"{hour:6d}h {est.seconds:10.0f}s "
              f"[{est.lower:8.0f}s, {est.upper:8.0f}s]")

    rush = predictor.estimate(Query(origin, dest, day + 8 * 3600.0))
    night = predictor.estimate(Query(origin, dest, day + 3 * 3600.0))
    print(f"\nrush-hour vs night ratio: "
          f"{rush.seconds / night.seconds:.2f}x")


if __name__ == "__main__":
    main()
