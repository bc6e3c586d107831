"""Period lookup of the speed-matrix stores and the serving code table.

``period_before`` clamps with plain ``min``/``max`` and ``periods_before``
is its vectorised form; the live overlay inherits both and the
serving table reads through them.  Each must agree with the original
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


def _flatten(mats):
    """A stand-in encoder whose row is the slice it encoded."""
    return mats.reshape(len(mats), -1).copy()


def test_periods_equal_the_clip_formula(store):
    live = LiveSpeedStore(store)
    times = _times(store)
    batched = [owner.periods_before(times) for owner in (store, live)]
    for got in batched:
        assert got.dtype == np.int64 and got.shape == (len(times),)
    for i, t in enumerate(times):
        want = _clip_formula(store, t)
        got = (store.period_before(t), live.period_before(t))
        assert got == (want, want), t
        assert all(type(p) is int for p in got)
        assert [int(b[i]) for b in batched] == [want, want], t


def test_negative_time_still_raises(store):
    cache = SpeedSliceCache(store, _flatten)
    live = LiveSpeedStore(store)
    for fn in (store.period_before, live.period_before,
               cache.normalized_matrix_before,
               lambda t: store.periods_before([0.0, t]),
               lambda t: live.periods_before([t]),
               lambda t: cache.traffic_before([t])):
        with pytest.raises(ValueError, match="non-negative"):
            fn(-1.0)


def test_non_finite_times_raise_in_the_batched_form(store):
    for t in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            store.periods_before([0.0, t])


def test_cached_slices_are_bitwise_and_counted(store):
    live = LiveSpeedStore(store)
    ps = store.config.period_seconds
    live.update_slice(3, store.matrix_at(3) * 0.5)
    cache = SpeedSliceCache(live, _flatten)
    for t in (4 * ps, 4 * ps + 1.0, 7 * ps, 1e12):
        got = cache.traffic_before([t])[0]
        assert np.array_equal(got, live.normalized_matrix_before(t).ravel())
    # The live slice answers period 3, normalised by the base scale.
    scale = 2.0 * max(store.global_mean_speed, 1e-6)
    assert np.array_equal(
        cache.traffic_before([4 * ps])[0],
        np.clip(store.matrix_at(3) * 0.5 / scale, 0.0, 2.0).ravel())
    stats = cache.stats()
    assert (stats["hits"], stats["misses"]) == (2, 3)
