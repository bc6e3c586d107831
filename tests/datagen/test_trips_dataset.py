"""Tests for trip generation, speed matrices, splits and city presets."""

import numpy as np
import pytest

from repro.datagen import (
    DatasetSpec, LiveSpeedStore, SpeedGridConfig, SpeedMatrixStore,
    TaxiDataset, TrafficModel, TripConfig, TripGenerator, WeatherProcess,
    build, chronological_split, edge_cell_indices, sample_departure_time,
    strip_trajectories, subsample_training,
)
from repro.roadnet import grid_city, is_connected_path
from repro.temporal import SECONDS_PER_DAY


@pytest.fixture(scope="module")
def small_dataset():
    """A tiny city with few trips — shared across tests for speed."""
    return build(DatasetSpec("mini-chengdu", num_trips=60, num_days=7))


class TestTripGenerator:
    def test_generates_requested_count(self, small_dataset):
        assert len(small_dataset.trips) == 60

    def test_trips_sorted_by_departure(self, small_dataset):
        departs = [t.od.depart_time for t in small_dataset.trips]
        assert departs == sorted(departs)

    def test_trajectory_consistency(self, small_dataset):
        """Each trip's trajectory must be connected, time-contiguous and
        agree with the OD input's endpoints."""
        net = small_dataset.net
        for trip in small_dataset.trips:
            traj = trip.trajectory
            assert traj is not None
            assert is_connected_path(net, traj.edge_ids)
            assert traj.edge_ids[0] == trip.od.origin_edge
            assert traj.edge_ids[-1] == trip.od.destination_edge
            assert traj.depart_time == pytest.approx(trip.od.depart_time)
            assert traj.travel_time == pytest.approx(trip.travel_time)

    def test_ratios_mid_edge(self, small_dataset):
        for trip in small_dataset.trips:
            assert 0.0 < trip.od.ratio_start < 1.0
            assert 0.0 < trip.od.ratio_end < 1.0

    def test_gps_points_cover_trip(self, small_dataset):
        for trip in small_dataset.trips[:20]:
            raw = trip.raw
            assert raw is not None
            assert raw.points[0].timestamp == pytest.approx(
                trip.od.depart_time)
            assert raw.points[-1].timestamp == pytest.approx(
                trip.od.depart_time + trip.travel_time)

    def test_rush_hour_trips_slower(self):
        """Departure time must matter: the same route at 8am takes longer
        than at 3am — the core signal DeepOD learns."""
        net = grid_city(6, 6, seed=3)
        traffic = TrafficModel(net, seed=4)
        horizon = 7 * SECONDS_PER_DAY
        weather = WeatherProcess(horizon, seed=5)
        gen = TripGenerator(net, traffic, weather, TripConfig(), seed=6)
        from repro.roadnet import dijkstra
        route, _ = dijkstra(net, 0, 35)
        rush = gen._drive(route, 1 * SECONDS_PER_DAY + 8 * 3600.0)
        night = gen._drive(route, 1 * SECONDS_PER_DAY + 3 * 3600.0)
        assert rush.travel_time > night.travel_time

    def test_route_diversity_same_od(self):
        """Example 1: repeated trips between the same hotspots take
        different routes at least sometimes."""
        net = grid_city(8, 8, seed=7)
        traffic = TrafficModel(net, seed=8)
        weather = WeatherProcess(7 * SECONDS_PER_DAY, seed=9)
        gen = TripGenerator(net, traffic, weather,
                            TripConfig(route_noise=0.5), seed=10)
        from repro.roadnet import perturbed_route
        routes = set()
        for _ in range(15):
            edges, _ = perturbed_route(net, 0, 60, gen.rng, noise=0.5)
            routes.add(tuple(edges))
        assert len(routes) > 1

    def test_invalid_requests(self, small_dataset):
        net = grid_city(4, 4, seed=0)
        traffic = TrafficModel(net)
        weather = WeatherProcess(SECONDS_PER_DAY)
        gen = TripGenerator(net, traffic, weather, seed=1)
        with pytest.raises(ValueError):
            gen.generate(0)
        with pytest.raises(ValueError):
            gen.generate(5, num_days=0)

    def test_departure_demand_peaks(self):
        rng = np.random.default_rng(11)
        hours = np.array([
            (sample_departure_time(rng, 0.0) % SECONDS_PER_DAY) / 3600.0
            for _ in range(3000)])
        morning = np.mean((hours > 7) & (hours < 10))
        small_hours = np.mean((hours > 1) & (hours < 4))
        assert morning > small_hours * 2


class TestSpeedMatrixStore:
    def test_shapes_and_positive(self, small_dataset):
        store = small_dataset.speed_store
        mat = store.matrix_before(2 * SECONDS_PER_DAY)
        assert mat.shape == store.shape
        assert (mat > 0).all()

    def test_matrix_before_uses_prior_period(self, small_dataset):
        store = small_dataset.speed_store
        period = store.config.period_seconds
        a = store.matrix_before(period * 10.0 + 1.0)
        b = store.matrix_before(period * 10.0 + period - 1.0)
        np.testing.assert_allclose(a, b)

    def test_normalized_in_range(self, small_dataset):
        mat = small_dataset.speed_store.normalized_matrix_before(
            SECONDS_PER_DAY)
        assert (mat >= 0).all() and (mat <= 2.0).all()

    def test_negative_time_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            small_dataset.speed_store.matrix_before(-1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SpeedGridConfig(cell_metres=0.0)

    def test_empty_slot_falls_back_to_global_mean(self, small_dataset):
        """Periods no trajectory ever touched must answer with the dense
        global-mean imputation, not zeros or NaNs."""
        net = small_dataset.net
        horizon = small_dataset.horizon_seconds
        store = SpeedMatrixStore(net, small_dataset.trips[:1], horizon)
        trip = small_dataset.trips[0]
        trip_period = min(
            int(trip.trajectory.path[0].enter_time
                // store.config.period_seconds),
            store.periods - 1)
        # Any period entirely after the single trip's arrival is empty.
        empty_period = min(
            int((trip.od.depart_time + trip.travel_time)
                // store.config.period_seconds) + 2,
            store.periods - 1)
        empty = store.matrix_at(empty_period)
        assert np.allclose(empty, store.global_mean_speed)
        assert store.global_mean_speed > 0
        assert not np.allclose(store.matrix_at(trip_period),
                               store.global_mean_speed)

    def test_out_of_horizon_clamps_to_final_period(self, small_dataset):
        store = small_dataset.speed_store
        horizon = store.periods * store.config.period_seconds
        assert store.period_before(horizon * 10.0) == store.periods - 1
        np.testing.assert_array_equal(
            store.matrix_before(horizon * 10.0),
            store.matrix_at(store.periods - 1))

    def test_matrix_at_range_checked(self, small_dataset):
        store = small_dataset.speed_store
        with pytest.raises(ValueError):
            store.matrix_at(-1)
        with pytest.raises(ValueError):
            store.matrix_at(store.periods)

    def test_save_load_round_trip_identity(self, small_dataset, tmp_path):
        store = small_dataset.speed_store
        path = store.save(str(tmp_path / "speeds"))
        loaded = SpeedMatrixStore.load(path)
        assert loaded.shape == store.shape
        assert loaded.periods == store.periods
        assert loaded.min_x == store.min_x
        assert loaded.min_y == store.min_y
        assert loaded.config.cell_metres == store.config.cell_metres
        assert loaded.config.period_seconds == store.config.period_seconds
        assert loaded.global_mean_speed == store.global_mean_speed
        for period in range(store.periods):
            np.testing.assert_array_equal(loaded.matrix_at(period),
                                          store.matrix_at(period))

    def test_edge_cell_indices_match_scalar_cells(self, small_dataset):
        net = small_dataset.net
        store = small_dataset.speed_store
        rows, cols = edge_cell_indices(net, store)
        assert rows.shape == cols.shape == (net.num_edges,)
        assert (0 <= rows).all() and (rows < store.rows).all()
        assert (0 <= cols).all() and (cols < store.cols).all()
        for eid in range(0, net.num_edges, 7):
            a, b = net.edge_vector(eid)
            mid = (np.asarray(a) + np.asarray(b)) / 2.0
            assert (rows[eid], cols[eid]) == store._cell(mid[0], mid[1])


class TestLiveSpeedStore:
    def test_overlay_answers_live_and_falls_through(self, small_dataset):
        base = small_dataset.speed_store
        live = LiveSpeedStore(base)
        period = 3
        fresh = np.full(base.shape, 1.25)
        live.update_slice(period, fresh)
        np.testing.assert_array_equal(live.matrix_at(period), fresh)
        other = (period + 1) % base.periods
        np.testing.assert_array_equal(live.matrix_at(other),
                                      base.matrix_at(other))
        assert live.live_periods == [period]

    def test_normalisation_keeps_base_scale(self, small_dataset):
        """Live congestion must show as genuinely lower normalised
        values: the scale is the BASE global mean, not the live mean."""
        base = small_dataset.speed_store
        live = LiveSpeedStore(base)
        period = base.period_before(2 * SECONDS_PER_DAY)
        congested = base.matrix_at(period) * 0.5
        live.update_slice(period, congested)
        t = (period + 1) * base.config.period_seconds + 1.0
        normal = base.normalized_matrix_before(t)
        slowed = live.normalized_matrix_before(t)
        assert (slowed <= normal + 1e-12).all()
        assert slowed.mean() < normal.mean()

    def test_shape_and_range_validated(self, small_dataset):
        live = LiveSpeedStore(small_dataset.speed_store)
        with pytest.raises(ValueError):
            live.update_slice(0, np.ones((1, 1)))
        with pytest.raises(ValueError):
            live.update_slice(live.periods, np.ones(live.shape))


class TestSplits:
    def test_chronological_order_preserved(self, small_dataset):
        split = small_dataset.split
        last_train = split.train[-1].od.depart_time
        first_val = split.validation[0].od.depart_time
        first_test = split.test[0].od.depart_time
        assert last_train <= first_val <= first_test

    def test_ratio_roughly_42_7_12(self):
        ds = build(DatasetSpec("mini-chengdu", num_trips=61, num_days=7))
        n_train, n_val, n_test = ds.split.sizes
        total = n_train + n_val + n_test
        assert n_train / total == pytest.approx(42 / 61, abs=0.05)
        assert n_test / total == pytest.approx(12 / 61, abs=0.06)

    def test_strip_trajectories(self, small_dataset):
        stripped = strip_trajectories(small_dataset.split.test)
        assert all(t.trajectory is None and t.raw is None for t in stripped)
        assert all(t.travel_time == orig.travel_time
                   for t, orig in zip(stripped, small_dataset.split.test))

    def test_subsample_training(self, small_dataset):
        sub = subsample_training(small_dataset.split, 0.5, seed=1)
        assert len(sub.train) == len(small_dataset.split.train) // 2
        assert sub.test is small_dataset.split.test

    def test_subsample_full_fraction_identity(self, small_dataset):
        sub = subsample_training(small_dataset.split, 1.0)
        assert sub is small_dataset.split

    def test_subsample_invalid(self, small_dataset):
        with pytest.raises(ValueError):
            subsample_training(small_dataset.split, 0.0)

    def test_split_validation(self):
        with pytest.raises(ValueError):
            chronological_split([], ratios=(42, 7, 12))


class TestCityPresets:
    def test_unknown_city(self):
        with pytest.raises(KeyError):
            build(DatasetSpec("mini-shanghai"))

    def test_statistics_structure(self, small_dataset):
        stats = small_dataset.statistics()
        assert stats["num_orders"] == 60
        assert stats["avg_travel_time_s"] > 0
        assert stats["avg_segments"] >= 4
        assert stats["avg_length_m"] > 0

    def test_beijing_sparser_gps(self):
        """mini-beijing uses 60s sampling: far fewer points per trip
        relative to trip duration (Table 2's Avg # of points contrast)."""
        chengdu = build(DatasetSpec("mini-chengdu", num_trips=25, num_days=7))
        beijing = build(DatasetSpec("mini-beijing", num_trips=25, num_days=7))
        cd = chengdu.statistics()
        bj = beijing.statistics()
        cd_rate = cd["avg_points"] / cd["avg_travel_time_s"]
        bj_rate = bj["avg_points"] / bj["avg_travel_time_s"]
        assert cd_rate > 5 * bj_rate

    def test_beijing_longer_trips(self):
        chengdu = build(DatasetSpec("mini-chengdu", num_trips=25, num_days=7))
        beijing = build(DatasetSpec("mini-beijing", num_trips=25, num_days=7))
        assert (beijing.statistics()["avg_length_m"]
                > chengdu.statistics()["avg_length_m"])
