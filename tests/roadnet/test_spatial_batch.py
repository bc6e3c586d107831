"""Parity of the batched spatial index with the scalar ring walk.

The oracle below is the original per-point algorithm: a dict of cell ->
edge lists, rings walked outward cell by cell, scalar
``RoadNetwork.project_point`` per edge.  Batched queries, the scalar
wrappers and the oracle must agree exactly: same ``(edge_id, distance,
ratio)`` floats in the same order, including ties between reverse-twin
edges.
"""

from collections import OrderedDict, defaultdict

import numpy as np
import pytest

from repro.mapmatching import HMMConfig, candidates_for_trajectory
from repro.roadnet import RoadNetwork, SpatialIndex, dijkstra, grid_city
from repro.roadnet.spatial_index import CHUNK
from repro.serving import ODMatchCache
from repro.trajectory.model import GPSPoint


class RingWalkOracle:
    """The scalar ring-walk index the batched one must reproduce."""

    def __init__(self, net, cell_size):
        self.net = net
        self.cell_size = cell_size
        min_x, min_y, max_x, max_y = net.bounding_box()
        self.min_x = min_x - cell_size
        self.min_y = min_y - cell_size
        self.cols = int(np.ceil((max_x - self.min_x) / cell_size)) + 2
        self.rows = int(np.ceil((max_y - self.min_y) / cell_size)) + 2
        self.cells = defaultdict(list)
        for edge in net.edges():
            a, b = net.edge_vector(edge.edge_id)
            cx0, cy0 = self.cell(min(a[0], b[0]), min(a[1], b[1]))
            cx1, cy1 = self.cell(max(a[0], b[0]), max(a[1], b[1]))
            for cx in range(cx0, cx1 + 1):
                for cy in range(cy0, cy1 + 1):
                    self.cells[(cx, cy)].append(edge.edge_id)

    def cell(self, x, y):
        return (int((x - self.min_x) // self.cell_size),
                int((y - self.min_y) // self.cell_size))

    def start(self, x, y):
        cx, cy = self.cell(x, y)
        return (min(max(cx, 0), self.cols - 1),
                min(max(cy, 0), self.rows - 1))

    @staticmethod
    def ring(cx, cy, r):
        if r == 0:
            return [(cx, cy)]
        cells = []
        for dx in range(-r, r + 1):
            cells += [(cx + dx, cy - r), (cx + dx, cy + r)]
        for dy in range(-r + 1, r):
            cells += [(cx - r, cy + dy), (cx + r, cy + dy)]
        return cells

    def ring_edges(self, x, y, r, seen):
        cx, cy = self.start(x, y)
        out = []
        for cell in self.ring(cx, cy, r):
            for eid in self.cells.get(cell, ()):
                if eid not in seen:
                    seen.add(eid)
                    out.append(eid)
        return out

    def k_nearest(self, x, y, k):
        best, seen = [], set()
        for r in range(max(self.rows, self.cols) + 1):
            for eid in self.ring_edges(x, y, r, seen):
                dist, ratio = self.net.project_point(eid, x, y)
                best.append((dist, eid, ratio))
            if len(best) >= k:
                best.sort()
                if best[k - 1][0] <= r * self.cell_size:
                    break
        best.sort()
        return [(eid, dist, ratio) for dist, eid, ratio in best[:k]]

    def within(self, x, y, radius):
        seen, eids = set(), []
        for r in range(int(np.ceil(radius / self.cell_size)) + 2):
            eids += self.ring_edges(x, y, r, seen)
        hits = [(eid,) + self.net.project_point(eid, x, y) for eid in eids]
        hits = [h for h in hits if h[1] <= radius]
        hits.sort(key=lambda h: h[1])
        return hits


@pytest.fixture(scope="module", params=[(250.0, 0), (130.0, 3)],
            ids=["cell250", "cell130"])
def setup(request):
    cell_size, seed = request.param
    net = grid_city(8, 8, seed=seed)
    return net, SpatialIndex(net, cell_size), RingWalkOracle(net, cell_size)


def seeded_points(net, n, seed, margin):
    rng = np.random.default_rng(seed)
    min_x, min_y, max_x, max_y = net.bounding_box()
    return (rng.uniform(min_x - margin, max_x + margin, n),
            rng.uniform(min_y - margin, max_y + margin, n))


def tie_points(net):
    """Vertices and edge midpoints: equidistant reverse-twin edges."""
    xs = [v.x for v in net.vertices()]
    ys = [v.y for v in net.vertices()]
    for edge in net.edges():
        x, y = net.point_at_ratio(edge.edge_id, 0.5)
        xs.append(x)
        ys.append(y)
    return np.array(xs), np.array(ys)


def far_points():
    """Points whose answer lies beyond ring 1, up to far off the grid."""
    return (np.array([-3000.0, 9000.0, 400.0, -1e6, 5e12]),
            np.array([-3000.0, 400.0, 9000.0, 2.5e6, -7e11]))


def point_sets(net):
    inside = seeded_points(net, 120, 1, 0.0)
    around = seeded_points(net, 120, 2, 600.0)
    return {"inside": inside, "around": around, "ties": tie_points(net),
            "far": far_points()}


def assert_columns(got, hits):
    """``nearest_edges`` columns equal the oracle's hits, bit for bit."""
    eid, dist, ratio = got
    assert eid.dtype == np.int64
    assert dist.dtype == ratio.dtype == np.float64
    assert [eid.tolist(), dist.tolist(), ratio.tolist()] == \
        [[h[0] for h in hits], [h[1] for h in hits], [h[2] for h in hits]]


def mixed_points(net, n):
    """``n`` points around the grid with the far points spread evenly
    among them."""
    xs, ys = seeded_points(net, n, 11, 600.0)
    fx, fy = far_points()
    slots = np.arange(len(fx)) * (n // len(fx))
    xs[slots], ys[slots] = fx, fy
    return xs, ys


class TestNearestParity:
    @pytest.mark.parametrize("which", ["inside", "around", "ties", "far"])
    def test_nearest_edges_equal_oracle(self, setup, which):
        net, index, oracle = setup
        xs, ys = point_sets(net)[which]
        want = [oracle.k_nearest(x, y, 1)[0]
                for x, y in zip(xs.tolist(), ys.tolist())]
        assert_columns(index.nearest_edges(xs, ys), want)
        assert [index.nearest_edge(x, y)
                for x, y in zip(xs.tolist(), ys.tolist())] == want

    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("which", ["inside", "around", "ties", "far"])
    def test_k_nearest_equal_oracle(self, setup, which, k):
        net, index, oracle = setup
        xs, ys = point_sets(net)[which]
        want = [oracle.k_nearest(x, y, k)
                for x, y in zip(xs.tolist(), ys.tolist())]
        assert index.k_nearest_edges_batch(xs, ys, k) == want
        assert [index.k_nearest_edges(x, y, k)
                for x, y in zip(xs.tolist(), ys.tolist())] == want

    def test_ties_are_broken_by_edge_id(self, setup):
        net, index, _ = setup
        xs, ys = tie_points(net)
        tied = 0
        for hits in index.k_nearest_edges_batch(xs, ys, 2):
            if hits[0][1] == hits[1][1]:
                tied += 1
                assert hits[0][0] < hits[1][0]
        assert tied > 0

    @pytest.mark.parametrize("size", [0, 1, 2, 250])
    def test_batch_sizes_with_duplicates(self, setup, size):
        net, index, oracle = setup
        xs, ys = seeded_points(net, size, 7, 300.0)
        if size >= 2:
            xs[size // 2:] = xs[:size - size // 2]   # duplicate points
            ys[size // 2:] = ys[:size - size // 2]
        points = list(zip(xs.tolist(), ys.tolist()))
        want = [oracle.k_nearest(x, y, 1)[0] for x, y in points]
        assert_columns(index.nearest_edges(xs, ys), want)
        assert_columns(index.nearest_edges(xs.tolist(), ys.tolist()), want)
        for k in (1, 2, 5):
            assert index.k_nearest_edges_batch(xs, ys, k) == \
                [oracle.k_nearest(x, y, k) for x, y in points]

    def test_batch_spanning_chunks_with_far_points(self, setup):
        net, index, oracle = setup
        xs, ys = mixed_points(net, 2 * CHUNK + 37)
        points = list(zip(xs.tolist(), ys.tolist()))
        assert_columns(index.nearest_edges(xs, ys),
                       [oracle.k_nearest(x, y, 1)[0] for x, y in points])
        for k in (2, 5):
            assert index.k_nearest_edges_batch(xs, ys, k) == \
                [oracle.k_nearest(x, y, k) for x, y in points]

    def test_overflowing_projection_walks_as_the_oracle(self):
        """A point so far off that its projection on a diagonal edge in
        its clamped start cell's ring overflows to NaN walks on, as the
        scalar walk does."""
        net = RoadNetwork()
        for i, (x, y) in enumerate([(0, 0), (300, 200), (600, -100),
                                    (100, 500), (750, 0)]):
            net.add_vertex(i, float(x), float(y))
        for a, b in [(0, 1), (1, 0), (1, 2), (2, 1), (0, 3), (3, 0),
                     (2, 4), (4, 2)]:
            net.add_edge(a, b)
        index, oracle = SpatialIndex(net), RingWalkOracle(net, 250.0)
        xs, ys = [1e307, 150.0], [-1e307, 100.0]
        with np.errstate(over="ignore", invalid="ignore"):
            for k in (1, 2):
                want = [oracle.k_nearest(x, y, k) for x, y in zip(xs, ys)]
                np.testing.assert_equal(
                    index.k_nearest_edges_batch(xs, ys, k), want)
            got = index.nearest_edges(xs, ys)
        assert np.isnan(got[1][0])
        np.testing.assert_equal([c.tolist() for c in got],
                                [list(c) for c in zip(*(w[0] for w in want))])

    def test_non_finite_coordinates_rejected(self, setup):
        _, index, _ = setup
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                index.nearest_edges([0.0, bad], [0.0, 0.0])
            with pytest.raises(ValueError, match="finite"):
                index.k_nearest_edges_batch([0.0], [bad], 2)
        with pytest.raises(ValueError, match="same length"):
            index.nearest_edges([0.0, 1.0], [0.0])
        with pytest.raises(ValueError, match="k must be"):
            index.k_nearest_edges_batch([0.0], [0.0], 0)


class TestEmptyIndex:
    @pytest.fixture
    def index(self):
        net = RoadNetwork()
        net.add_vertex(0, 0.0, 0.0)
        net.add_vertex(1, 500.0, 300.0)
        return SpatialIndex(net)

    def test_nearest_raises(self, index):
        with pytest.raises(ValueError, match="spatial index is empty"):
            index.nearest_edges([10.0, 2e4], [10.0, 0.0])
        with pytest.raises(ValueError, match="spatial index is empty"):
            index.nearest_edge(10.0, 10.0)

    def test_empty_answers(self, index):
        assert_columns(index.nearest_edges([], []), [])
        assert index.k_nearest_edges_batch([10.0, 2e4], [10.0, 0.0], 2) \
            == [[], []]


class TestRadiusParity:
    @pytest.mark.parametrize("radius", [0.0, 50.0, 80.0, 260.0, 700.0])
    @pytest.mark.parametrize("which", ["inside", "around", "ties", "far"])
    def test_edges_within_equal_oracle(self, setup, which, radius):
        net, index, oracle = setup
        xs, ys = point_sets(net)[which]
        want = [oracle.within(x, y, radius)
                for x, y in zip(xs.tolist(), ys.tolist())]
        assert index.edges_within_batch(xs, ys, radius) == want
        assert [index.edges_within(x, y, radius)
                for x, y in zip(xs[:10].tolist(), ys[:10].tolist())] \
            == want[:10]

    @pytest.mark.parametrize("size", [0, 1, 2, 250])
    def test_batch_sizes(self, setup, size):
        net, index, oracle = setup
        xs, ys = seeded_points(net, size, 8, 100.0)
        want = [oracle.within(x, y, 80.0)
                for x, y in zip(xs.tolist(), ys.tolist())]
        assert index.edges_within_batch(xs, ys, 80.0) == want


def noisy_trajectory(net, seed):
    """GPS fixes along a shortest path, with noise and one wild fix."""
    rng = np.random.default_rng(seed)
    n = net.num_vertices
    edges = []
    while not edges:
        a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
        edges, _ = dijkstra(net, a, b)
    points = []
    for eid in edges:
        for ratio in (0.0, 0.4, 0.8):
            x, y = net.point_at_ratio(eid, ratio)
            points.append(GPSPoint(float(x + rng.normal(0, 25.0)),
                                   float(y + rng.normal(0, 25.0)),
                                   float(len(points))))
    points.append(GPSPoint(-2000.0, -2000.0, float(len(points))))
    return points


class TestCandidateColumns:
    @pytest.mark.parametrize("seed", range(4))
    def test_columns_equal_oracle(self, setup, seed):
        net, index, oracle = setup
        cfg = HMMConfig()
        points = noisy_trajectory(net, seed)
        want = []
        for p in points:
            hits = oracle.within(p.x, p.y, cfg.radius)[:cfg.max_candidates]
            if len(hits) < 2:
                hits = oracle.k_nearest(p.x, p.y, 2)
            want.append(hits)
        columns = candidates_for_trajectory(index, points, cfg.radius,
                                            cfg.max_candidates)
        got = [[(c.edge_id, c.distance, c.ratio) for c in col]
               for col in columns]
        assert got == want


def sequential_lru(keys, capacity):
    """(hits, misses, evictions, final key order) of one lookup per key."""
    data, hits, misses, evictions = OrderedDict(), 0, 0, 0
    for key in keys:
        if key in data:
            data.move_to_end(key)
            hits += 1
        else:
            misses += 1
            data[key] = True
            if len(data) > capacity:
                data.popitem(last=False)
                evictions += 1
    return hits, misses, evictions, list(data)


class CountingIndex:
    def __init__(self, index):
        self.index = index
        self.calls = []

    def nearest_edges(self, xs, ys):
        self.calls.append(len(xs))
        return self.index.nearest_edges(xs, ys)


class TestODMatchCacheBatch:
    @pytest.mark.parametrize("capacity", [1, 3, 64])
    def test_counts_equal_sequential_lookups(self, setup, capacity):
        net, index, oracle = setup
        rng = np.random.default_rng(capacity)
        xs, ys = seeded_points(net, 12, 9, 50.0)
        picks = rng.integers(len(xs), size=(5, 40))   # repeats in a batch
        counting = CountingIndex(index)
        cache = ODMatchCache(counting, capacity=capacity)
        keys = []
        for batch in picks:
            bx, by = xs[batch].tolist(), ys[batch].tolist()
            assert_columns(cache.nearest_edges(bx, by),
                           [oracle.k_nearest(x, y, 1)[0]
                            for x, y in zip(bx, by)])
            keys += list(zip(bx, by))
        hits, misses, evictions, order = sequential_lru(keys, capacity)
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["evictions"]) \
            == (hits, misses, evictions)
        assert list(cache._lru._data) == order
        assert len(counting.calls) <= len(picks)   # one query per batch

    def test_scalar_lookup_counts(self, setup):
        _, index, _ = setup
        cache = ODMatchCache(index, capacity=2)
        for x, y in [(0.0, 0.0), (0.0, 0.0), (500.0, 0.0), (900.0, 9.0),
                     (0.0, 0.0)]:
            assert cache.nearest_edge(x, y) == index.nearest_edge(x, y)
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["evictions"]) \
            == (1, 4, 2)

