"""Parity of the csgraph-backed SSSP kernel and the trajectory-level
Viterbi with their scalar oracles.

The oracle below is the heapq relaxation loop ``dijkstra_sssp`` used to
run.  Edge lengths are positive and parallel edges / self-loops are
forbidden, so every distance is the unique fixed point
``d[v] = min_u fl(d[u] + w_uv)``: the kernel's rows must equal the
oracle's bit for bit, not just to a tolerance.  The vectorised Viterbi
must pick the same states as the per-candidate reference, and raise at
the same fix when a trajectory is infeasible.
"""

import heapq
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.datagen.cities import PRESETS, preset_network
from repro.datagen.traffic import TrafficConfig, TrafficModel
from repro.datagen.trips import TripConfig, TripGenerator
from repro.datagen.weather import WeatherProcess
from repro.mapmatching import (
    Candidate, HMMMapMatcher, MatchingError, candidates_for_trajectory,
)
from repro.roadnet import RoadNetwork, dijkstra
from repro.roadnet.shortest_path import dijkstra_sssp
from repro.trajectory.model import GPSPoint


def heapq_sssp(net, source):
    """The original pure-Python single-source Dijkstra."""
    dist = np.full(net.num_vertices, np.inf)
    dist[source] = 0.0
    heap = [(0.0, source)]
    visited = np.zeros(net.num_vertices, dtype=bool)
    while heap:
        d, v = heapq.heappop(heap)
        if visited[v]:
            continue
        visited[v] = True
        for edge in net.out_edges(v):
            nd = d + edge.length
            if nd < dist[edge.end]:
                dist[edge.end] = nd
                heapq.heappush(heap, (nd, edge.end))
    return dist


# (preset, source stride): every source of the small grids, a spread of
# sources on the mega ones.
CITIES = [("mini-chengdu", 1), ("mini-beijing", 1), ("mega-chengdu", 5),
          ("mega-beijing", 13)]


@pytest.fixture(scope="module", params=CITIES, ids=lambda c: c[0])
def city(request):
    name, stride = request.param
    return preset_network(PRESETS[name]), stride


def dead_end_net():
    """0 <-> 1 -> 2, plus an isolated vertex 3: 2 is a one-way dead end."""
    net = RoadNetwork()
    for vid, (x, y) in enumerate([(0, 0), (100, 0), (200, 0), (0, 500)]):
        net.add_vertex(vid, x, y)
    net.add_edge(0, 1)
    net.add_edge(1, 0)
    net.add_edge(1, 2)
    return net


class TestKernel:
    def test_single_source_rows_are_bit_identical(self, city):
        net, stride = city
        for source in range(0, net.num_vertices, stride):
            row = dijkstra_sssp(net, source)
            assert row.shape == (net.num_vertices,)
            assert np.array_equal(row, heapq_sssp(net, source))

    def test_many_source_block_is_bit_identical(self, city):
        net, stride = city
        sources = np.arange(0, net.num_vertices, stride)[::-1]
        block = dijkstra_sssp(net, sources)
        assert block.shape == (len(sources), net.num_vertices)
        for source, row in zip(sources, block):
            assert np.array_equal(row, heapq_sssp(net, int(source)))

    def test_rows_agree_with_point_to_point_dijkstra(self, city):
        net, _ = city
        rng = np.random.default_rng(3)
        pairs = rng.integers(0, net.num_vertices, size=(20, 2))
        rows = dijkstra_sssp(net, pairs[:, 0])
        for (s, t), row in zip(pairs, rows):
            _, cost = dijkstra(net, int(s), int(t))
            assert row[t] == cost

    def test_unreachable_vertices_are_inf(self):
        net = dead_end_net()
        assert np.array_equal(dijkstra_sssp(net, 2),
                              [np.inf, np.inf, 0.0, np.inf])
        assert np.array_equal(dijkstra_sssp(net, 0),
                              [0.0, 100.0, 200.0, np.inf])
        for source in range(4):
            assert np.array_equal(dijkstra_sssp(net, source),
                                  heapq_sssp(net, source))

    def test_empty_sources(self):
        net = dead_end_net()
        assert dijkstra_sssp(net, []).shape == (0, 4)
        assert dijkstra_sssp(net, np.array([], dtype=np.int64)).shape \
            == (0, 4)

    def test_duplicate_sources_repeat_rows(self):
        net = dead_end_net()
        block = dijkstra_sssp(net, [1, 2, 1])
        assert block.shape == (3, 4)
        assert np.array_equal(block[0], block[2])
        assert np.array_equal(block[0], heapq_sssp(net, 1))
        assert np.array_equal(block[1], heapq_sssp(net, 2))

    def test_cached_arrays_follow_network_growth(self):
        net = dead_end_net()
        assert dijkstra_sssp(net, 2)[0] == np.inf
        net.add_edge(2, 0)
        assert dijkstra_sssp(net, 2)[0] == 200.0
        starts, ends, lengths = net.edge_arrays()
        assert starts.tolist() == [0, 1, 1, 2]
        assert ends.tolist() == [1, 0, 2, 0]
        assert lengths.tolist() == [e.length for e in net.edges()]


# ----------------------------------------------------------------------
# Trajectory-level Viterbi
# ----------------------------------------------------------------------
def seeded_trajectories(name, count, seed_offset=3):
    preset = PRESETS[name]
    net = preset_network(preset)
    weather = WeatherProcess(86400.0, seed=preset.seed + 1)
    traffic = TrafficModel(net, TrafficConfig(), seed=preset.seed + 2)
    generator = TripGenerator(
        net, traffic, weather,
        TripConfig(gps_period=preset.gps_period,
                   min_trip_edges=preset.min_trip_edges),
        seed=preset.seed + seed_offset)
    trips = generator.generate(count, start_day=0, num_days=1)
    return net, [trip.raw for trip in trips]


def both_engines(matcher, points, columns):
    """(states or error message) of the vectorised and reference
    engines."""
    out = []
    for fn in (matcher._viterbi_vectorized, matcher._viterbi_reference):
        try:
            out.append(fn(points, columns))
        except MatchingError as exc:
            out.append(f"MatchingError: {exc}")
    return out


@pytest.mark.parametrize("name", ["mini-chengdu", "mega-beijing"])
def test_viterbi_matches_reference_on_seeded_trips(name):
    net, trajs = seeded_trajectories(name, 6)
    matcher = HMMMapMatcher(net)
    for traj in trajs:
        columns = candidates_for_trajectory(
            matcher.index, traj.points, matcher.config.radius,
            matcher.config.max_candidates)
        vec, ref = both_engines(matcher, traj.points, columns)
        assert isinstance(vec, list)
        assert vec == ref


def test_viterbi_unequal_and_single_candidate_columns():
    net, trajs = seeded_trajectories("mini-chengdu", 4, seed_offset=11)
    matcher = HMMMapMatcher(net)
    rng = np.random.default_rng(0)
    for traj in trajs:
        columns = candidates_for_trajectory(
            matcher.index, traj.points, matcher.config.radius,
            matcher.config.max_candidates)
        # Cut each column to a random length >= 1, some to exactly 1.
        cut = [col[:int(rng.integers(1, len(col) + 1))] for col in columns]
        cut[len(cut) // 2] = cut[len(cut) // 2][:1]
        cut[0] = cut[0][:1]
        assert len({len(col) for col in cut}) > 1
        vec, ref = both_engines(matcher, traj.points, cut)
        assert vec == ref


def test_viterbi_one_fix():
    net, trajs = seeded_trajectories("mini-chengdu", 1)
    matcher = HMMMapMatcher(net)
    points = trajs[0].points[:1]
    columns = candidates_for_trajectory(
        matcher.index, points, matcher.config.radius,
        matcher.config.max_candidates)
    vec, ref = both_engines(matcher, points, columns)
    assert vec == ref and len(vec) == 1


def test_infeasible_fix_raises_at_the_same_index():
    net = dead_end_net()
    matcher = HMMMapMatcher(net)
    points = [GPSPoint(0.0, 1.0, 0.0), GPSPoint(60.0, 1.0, 5.0),
              GPSPoint(150.0, 1.0, 10.0), GPSPoint(30.0, 1.0, 15.0),
              GPSPoint(20.0, 1.0, 20.0)]
    # Fixes 0-2 drive 0 -> 1 -> 2; fix 3 sits only on edge 1 -> 0,
    # which the dead end at vertex 2 can never reach again.
    columns = [[Candidate(0, 1.0, 0.0), Candidate(1, 1.0, 1.0)],
               [Candidate(0, 1.0, 0.6)],
               [Candidate(2, 1.0, 0.5)],
               [Candidate(1, 1.0, 0.7), Candidate(1, 2.0, 0.6)],
               [Candidate(1, 1.0, 0.8)]]
    vec, ref = both_engines(matcher, points, columns)
    assert ref == "MatchingError: no feasible transition into GPS fix 3"
    assert vec == ref


def test_cache_stats_keep_their_shape():
    net, trajs = seeded_trajectories("mini-chengdu", 3)
    matcher = HMMMapMatcher(net)
    for traj in trajs:
        matcher.match(traj)
    stats = matcher.cache_stats()
    assert set(stats) == {"sssp", "route"}
    for cache in stats.values():
        assert {"hits", "misses", "size", "capacity", "evictions",
                "hit_rate"} <= set(cache)
        assert isinstance(cache["hits"], int)
        assert isinstance(cache["misses"], int)
    sssp = stats["sssp"]
    # One row per distinct edge-end vertex, computed once.
    assert sssp["misses"] == sssp["size"] > 0
    assert sssp["hits"] > 0


def test_serving_imports_do_not_load_csgraph():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = ("import sys, repro.serving, repro.mapmatching.hmm\n"
            "assert 'scipy.sparse.csgraph' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env,
                   timeout=120)
