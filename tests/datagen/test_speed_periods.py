"""Period lookup of the speed-matrix stores and the serving slice cache.

``period_before`` clamps with plain ``min``/``max``; the cache and the
live overlay delegate to it.  Each must agree with the original
``np.clip`` formula everywhere, including just either side of a period
boundary and far past the horizon.
"""

import numpy as np
import pytest

from repro.datagen import DatasetSpec, build
from repro.datagen.speed_matrix import LiveSpeedStore
from repro.serving.cache import SpeedSliceCache


@pytest.fixture(scope="module")
def store():
    return build(DatasetSpec("mini-chengdu", num_trips=40,
                             num_days=2)).speed_store


def _clip_formula(store, t):
    p = int(t // store.config.period_seconds) - 1
    return int(np.clip(p, 0, store.periods - 1))


def _times(store):
    ps = store.config.period_seconds
    horizon = store.periods * ps
    times = [0.0, 1e-9, ps * 0.5, horizon - 1.0, horizon, horizon + ps,
             10 * horizon, 1e12]
    for k in (1, 2, 3, store.periods // 2, store.periods - 1,
              store.periods, store.periods + 1):
        times += [k * ps - 1e-9, k * ps, k * ps + 1e-9]
    return times


def test_periods_equal_the_clip_formula(store):
    live = LiveSpeedStore(store)
    cache = SpeedSliceCache(live, capacity=4)
    for t in _times(store):
        want = _clip_formula(store, t)
        got = (store.period_before(t), live.period_before(t),
               cache.period_of(t))
        assert got == (want, want, want), t
        assert all(type(p) is int for p in got)


def test_negative_time_still_raises(store):
    cache = SpeedSliceCache(store, capacity=4)
    for fn in (store.period_before, LiveSpeedStore(store).period_before,
               cache.period_of, cache.normalized_matrix_before):
        with pytest.raises(ValueError, match="non-negative"):
            fn(-1.0)


def test_cached_slices_are_bitwise_and_counted(store):
    live = LiveSpeedStore(store)
    ps = store.config.period_seconds
    live.update_slice(3, store.matrix_at(3) * 0.5)
    cache = SpeedSliceCache(live, capacity=4)
    for t in (4 * ps, 4 * ps + 1.0, 7 * ps, 1e12):
        got = cache.normalized_matrix_before(t)
        assert np.array_equal(got, live.normalized_matrix_before(t))
    # The live slice answers period 3, normalised by the base scale.
    scale = 2.0 * max(store.global_mean_speed, 1e-6)
    assert np.array_equal(cache.normalized_matrix_before(4 * ps),
                          np.clip(store.matrix_at(3) * 0.5 / scale, 0.0, 2.0))
    stats = cache.stats()
    assert (stats["hits"], stats["misses"]) == (2, 3)
