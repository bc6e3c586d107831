"""Tests for batch matching: parallel parity, dedup fan-back, error
capture, the LRU route/SSSP caches and their metrics gauges, and the
vectorised Viterbi against its scalar reference."""

import numpy as np
import pytest

from repro.mapmatching import (
    HMMConfig, HMMMapMatcher, MatchRequest, MatchResult, MatchingError,
    match_many,
)
from repro.obs import MetricsRegistry
from repro.obs.cache import LRUCache
from repro.roadnet import grid_city
from repro.trajectory import GPSPoint, RawTrajectory

from ..roadnet.test_sssp_block import seeded_trajectories
from .test_hmm import synthesize_gps


@pytest.fixture(scope="module")
def city():
    """A connected grid plus a far-away disconnected island edge pair,
    so a grid-to-island trace has no feasible HMM transition."""
    net = grid_city(6, 6, seed=0, oneway_fraction=0.0,
                    removal_fraction=0.0, jitter=0.05)
    base = max(v.vertex_id for v in net.vertices()) + 1
    net.add_vertex(base, 1.0e5, 1.0e5)
    net.add_vertex(base + 1, 1.0e5 + 100.0, 1.0e5)
    net.add_edge(base, base + 1)
    net.add_edge(base + 1, base)
    return net


@pytest.fixture(scope="module")
def trajs(city):
    """A batch of drivable traces, with index 3 a byte-duplicate of 0
    and index 4 a grid-to-island jump the HMM rejects."""
    out = []
    for seed in range(3):
        edge_ids = _straight_path(city, seed)
        out.append(synthesize_gps(city, edge_ids, seed=seed))
    out.append(RawTrajectory(list(out[0].points)))      # duplicate of 0
    first = out[0].points[0]
    out.append(RawTrajectory([GPSPoint(first.x, first.y, 0.0),
                              GPSPoint(1.0e5 + 50.0, 1.0e5, 3.0)]))
    return out


def _straight_path(net, seed):
    rng = np.random.default_rng(seed)
    edge = net.edge(int(rng.integers(net.num_edges)))
    path = [edge.edge_id]
    for _ in range(4):
        succ = net.successors(path[-1])
        succ = [e for e in succ if e.edge_id != path[-1]]
        if not succ:
            break
        path.append(succ[0].edge_id)
    return path


class TestMatchMany:
    def test_results_in_input_order(self, city, trajs):
        matcher = HMMMapMatcher(city)
        results = match_many(matcher, trajs, jobs=1)
        assert [r.index for r in results] == list(range(len(trajs)))

    def test_errors_are_data_not_exceptions(self, city, trajs):
        matcher = HMMMapMatcher(city)
        results = match_many(matcher, trajs, jobs=1)
        assert results[4].trajectory is None
        assert not results[4].ok
        assert results[4].error        # captured MatchingError message
        assert all(r.ok for r in results[:4])

    def test_dedup_fans_back(self, city, trajs):
        matcher = HMMMapMatcher(city)
        results = match_many(matcher, trajs, jobs=1)
        assert results[3].duplicate_of == 0
        assert results[0].duplicate_of is None
        assert (results[3].trajectory.edge_ids
                == results[0].trajectory.edge_ids)

    def test_parallel_matches_serial(self, city, trajs):
        serial = match_many(HMMMapMatcher(city), trajs, jobs=1)
        parallel = match_many(HMMMapMatcher(city), trajs, jobs=4)
        for a, b in zip(serial, parallel):
            assert a.ok == b.ok
            assert a.error == b.error
            assert a.duplicate_of == b.duplicate_of
            if a.ok:
                assert a.trajectory.edge_ids == b.trajectory.edge_ids
                assert a.trajectory.path == b.trajectory.path

    def test_match_request_round_trip(self, city, trajs):
        matcher = HMMMapMatcher(city)
        ok = matcher.match_request(MatchRequest(0, trajs[0]))
        bad = matcher.match_request(MatchRequest(4, trajs[4]))
        assert isinstance(ok, MatchResult) and ok.ok
        assert not bad.ok and bad.error

    def test_match_still_raises(self, city, trajs):
        # The scalar entry point keeps its exception contract.
        with pytest.raises(MatchingError):
            HMMMapMatcher(city).match(trajs[4])

    def test_jobs_validation(self, city, trajs):
        with pytest.raises(ValueError):
            match_many(HMMMapMatcher(city), trajs, jobs=0)

    def test_matcher_method_delegates(self, city, trajs):
        results = HMMMapMatcher(city).match_many(trajs, jobs=1)
        assert len(results) == len(trajs)


class TestEngines:
    def test_vectorized_matches_reference_exactly(self, city):
        vec = HMMMapMatcher(city)
        ref = HMMMapMatcher(city)
        # match() always runs the vectorised Viterbi; bind the scalar
        # oracle in its place on this one instance.
        ref._viterbi_vectorized = ref._viterbi_reference
        for seed in range(8):
            traj = synthesize_gps(city, _straight_path(city, seed),
                                  seed=seed)
            a = vec.match(traj)
            b = ref.match(traj)
            assert a.edge_ids == b.edge_ids
            assert [(p.enter_time, p.exit_time) for p in a.path] \
                == [(p.enter_time, p.exit_time) for p in b.path]

    def test_unknown_engine_rejected(self):
        # The Viterbi engine selector is gone from the config.
        with pytest.raises(TypeError, match="engine"):
            HMMConfig(engine="reference")


class TestLRUCache:
    def test_caps_and_evicts(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)           # evicts "a"
        missing = object()
        assert cache.get("a", missing) is missing
        assert cache.get("b", missing) == 2
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1.0

    def test_none_is_a_valid_value(self):
        cache = LRUCache(4)
        cache.put("k", None)
        sentinel = object()
        assert cache.get("k", sentinel) is None

    def test_hit_rate(self):
        cache = LRUCache(4)
        cache.put("k", 1)
        cache.get("k")
        cache.get("miss")
        assert cache.hit_rate == 0.5

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_route_cache_is_bounded(self, city):
        config = HMMConfig(route_cache_size=64)
        matcher = HMMMapMatcher(city, config=config)
        for seed in range(4):
            matcher.match(synthesize_gps(city, _straight_path(city, seed),
                                         seed=seed))
        assert len(matcher._route_cache) <= 64

    def test_gap_fill_hits_route_cache_without_changing_paths(self):
        # mini-chengdu fixes are 3 s apart: consecutive matched edges
        # mostly touch, so the same vertex pairs recur.
        net, trips = seeded_trajectories("mini-chengdu", 6)
        default = HMMMapMatcher(net)
        tiny = HMMMapMatcher(net, config=HMMConfig(route_cache_size=1))
        for traj in trips:
            a, b = default.match(traj), tiny.match(traj)
            assert a.edge_ids == b.edge_ids
            assert [(p.enter_time, p.exit_time) for p in a.path] \
                == [(p.enter_time, p.exit_time) for p in b.path]
        assert default.cache_stats()["route"]["hit_rate"] > 0
        assert len(tiny._route_cache) == 1

    def test_gauges_mirror_cache_stats(self, city):
        registry = MetricsRegistry()
        matcher = HMMMapMatcher(city)
        matcher.register_cache_gauges(registry)
        matcher.match(synthesize_gps(city, _straight_path(city, 0)))
        snapshot = registry.snapshot()
        gauges = snapshot["gauges"]
        assert "match.cache.route.hit_rate" in gauges
        assert "match.cache.sssp.hit_rate" in gauges
        stats = matcher.cache_stats()
        assert gauges["match.cache.sssp.size"] == stats["sssp"]["size"]
