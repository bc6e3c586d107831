"""HMM map matching (Newson-Krumm style), the offline substitute for the
Valhalla matcher the paper uses.

States are candidate (edge, ratio) positions per GPS fix; emission
probability is Gaussian in the projection distance; transition probability
is exponential in the discrepancy between the great-circle displacement of
consecutive fixes and the route distance between their candidates.  Viterbi
decoding yields the most likely edge sequence, which is then expanded into a
connected path via shortest-path gap filling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.cache import LRUCache
from ..obs.metrics import MetricsRegistry
from ..roadnet.graph import RoadNetwork
from ..roadnet.shortest_path import NoPathError, dijkstra, dijkstra_sssp
from ..roadnet.spatial_index import SpatialIndex
from ..trajectory.interpolation import intervals_from_gps_times
from ..trajectory.model import GPSPoint, MatchedTrajectory, RawTrajectory
from .candidates import Candidate, candidates_for_trajectory


class MatchingError(Exception):
    """Raised when a trajectory cannot be matched to the network."""


@dataclass
class HMMConfig:
    """Tuning parameters of the matcher.

    ``sigma`` is the GPS noise standard deviation (metres) of the Gaussian
    emission model; ``beta`` scales the transition penalty on route-vs-
    displacement discrepancy; ``radius`` bounds the candidate search.

    ``route_cache_size`` bounds the shortest paths memoised per vertex
    pair (gap filling between matched edges); ``sssp_cache_size``
    bounds the per-vertex SSSP rows the Viterbi transitions read.
    """

    sigma: float = 25.0
    beta: float = 30.0
    radius: float = 80.0
    max_candidates: int = 8
    max_route_factor: float = 8.0    # prune absurd detours
    route_cache_size: int = 32768    # vertex-pair shortest paths
    sssp_cache_size: int = 4096      # per-vertex SSSP rows

    def __post_init__(self):
        if self.sigma <= 0 or self.beta <= 0 or self.radius <= 0:
            raise ValueError("sigma, beta and radius must be positive")
        if self.route_cache_size < 1 or self.sssp_cache_size < 1:
            raise ValueError("cache sizes must be >= 1")


class HMMMapMatcher:
    """Match raw GPS trajectories onto a road network."""

    def __init__(self, net: RoadNetwork, index: Optional[SpatialIndex] = None,
                 config: Optional[HMMConfig] = None):
        self.net = net
        self.index = index or SpatialIndex(net)
        self.config = config or HMMConfig()
        self._route_cache = LRUCache(self.config.route_cache_size)
        self._sssp_cache = LRUCache(self.config.sssp_cache_size)

    # ------------------------------------------------------------------
    def match(self, traj: RawTrajectory) -> MatchedTrajectory:
        """Match a raw trajectory; returns a :class:`MatchedTrajectory`.

        Raises :class:`MatchingError` when Viterbi finds no feasible state
        sequence (e.g. all candidates of some fix are unreachable).
        """
        points = traj.points
        columns = candidates_for_trajectory(
            self.index, points, self.config.radius,
            self.config.max_candidates)
        if any(not col for col in columns):
            raise MatchingError("a GPS fix produced no candidates")
        best_states = self._viterbi_vectorized(points, columns)
        edge_seq, route_positions = self._expand_path(best_states, columns)
        start = columns[0][best_states[0]]
        end = columns[-1][best_states[-1]]
        times = [p.timestamp for p in points]
        elements = intervals_from_gps_times(
            self.net, edge_seq, times, route_positions,
            start.ratio, end.ratio)
        return MatchedTrajectory(elements, start.ratio, end.ratio)

    def match_point(self, x: float, y: float) -> Tuple[int, float]:
        """Match a single point (an OD endpoint): (edge_id, ratio)."""
        edge_id, _, ratio = self.index.nearest_edge(x, y)
        return edge_id, ratio

    def match_request(self, request: "MatchRequest") -> "MatchResult":
        """Match one request, capturing :class:`MatchingError` in the
        result instead of raising — the unit of work of
        :func:`repro.mapmatching.batch.match_many`."""
        from .batch import MatchResult
        try:
            matched = self.match(request.trajectory)
        except MatchingError as exc:
            return MatchResult(index=request.index, trajectory=None,
                               error=str(exc))
        return MatchResult(index=request.index, trajectory=matched)

    def match_many(self, trajs: Sequence[RawTrajectory],
                   jobs: int = 1) -> List["MatchResult"]:
        """Match a batch of trajectories; see
        :func:`repro.mapmatching.batch.match_many`."""
        from .batch import match_many
        return match_many(self, trajs, jobs=jobs)

    # ------------------------------------------------------------------
    # Caches / observability
    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, Dict[str, float]]:
        """Hit/miss statistics of the route and SSSP LRU caches."""
        return {"route": self._route_cache.stats(),
                "sssp": self._sssp_cache.stats()}

    def register_cache_gauges(self, registry: MetricsRegistry,
                              prefix: str = "match.cache") -> None:
        """Export cache hit rates as gauges, mirroring ``serve.cache.*``."""
        registry.register_gauge(f"{prefix}.route.hit_rate",
                                lambda: self._route_cache.hit_rate)
        registry.register_gauge(f"{prefix}.route.size",
                                lambda: len(self._route_cache))
        registry.register_gauge(f"{prefix}.sssp.hit_rate",
                                lambda: self._sssp_cache.hit_rate)
        registry.register_gauge(f"{prefix}.sssp.size",
                                lambda: len(self._sssp_cache))

    # ------------------------------------------------------------------
    # Viterbi
    # ------------------------------------------------------------------
    def _viterbi_reference(self, points: Sequence[GPSPoint],
                           columns: List[List[Candidate]]) -> List[int]:
        """Per-candidate scalar Viterbi — the oracle the vectorised
        Viterbi is benchmarked and parity-tested against."""
        cfg = self.config
        n = len(points)
        # Log-probability tables.
        prev_scores = np.array([self._emission(c) for c in columns[0]])
        back: List[np.ndarray] = []
        for t in range(1, n):
            displacement = float(np.hypot(
                points[t].x - points[t - 1].x,
                points[t].y - points[t - 1].y))
            cur = columns[t]
            prev = columns[t - 1]
            scores = np.full(len(cur), -np.inf)
            pointers = np.zeros(len(cur), dtype=np.int64)
            for j, cand in enumerate(cur):
                emit = self._emission(cand)
                best_score, best_i = -np.inf, 0
                for i, prev_cand in enumerate(prev):
                    if not np.isfinite(prev_scores[i]):
                        continue
                    trans = self._transition(prev_cand, cand, displacement)
                    score = prev_scores[i] + trans
                    if score > best_score:
                        best_score, best_i = score, i
                scores[j] = best_score + emit
                pointers[j] = best_i
            if not np.any(np.isfinite(scores)):
                raise MatchingError(
                    f"no feasible transition into GPS fix {t}")
            prev_scores = scores
            back.append(pointers)

        # Backtrack.
        states = [int(np.argmax(prev_scores))]
        for pointers in reversed(back):
            states.append(int(pointers[states[-1]]))
        states.reverse()
        return states

    def _viterbi_vectorized(self, points: Sequence[GPSPoint],
                            columns: List[List[Candidate]]) -> List[int]:
        """Trajectory-vectorised Viterbi.

        The whole lattice is built before the DP: candidate columns are
        padded to ``(T, K)`` arrays (padding last, scored ``-inf``, so
        ``argmax`` still keeps the first real maximum), the SSSP rows of
        every edge-end vertex of the trajectory come through the row
        cache with the missing ones computed in one many-source call,
        and the ``(T-1, K, K)`` transition tensor is formed in one pass.
        Expression trees mirror the scalar reference exactly (same
        operand order), so both produce identical log-probabilities
        and states.
        """
        cfg = self.config
        n = len(points)
        eids, ratios, dists, valid = _padded_columns(columns)
        emission = np.where(valid, -0.5 * (dists / cfg.sigma) ** 2
                            - np.log(cfg.sigma * np.sqrt(2 * np.pi)),
                            -np.inf)
        trans = self._transition_tensor(points, eids, ratios, valid)
        # lattice[t] holds the best score of each state of fix t; a fix
        # whose states are all -inf leaves every later fix -inf too.
        lattice = np.empty(eids.shape)
        lattice[0] = emission[0]
        back = np.empty((n - 1, eids.shape[1]), dtype=np.int64)
        cols = np.arange(eids.shape[1])
        for t in range(1, n):
            total = lattice[t - 1][:, None] + trans[t - 1]
            # np.argmax keeps the first maximum, like the reference's
            # strict-improvement scan.
            back[t - 1] = pointers = total.argmax(axis=0)
            lattice[t] = total[pointers, cols] + emission[t]
        feasible = np.isfinite(lattice[1:]).any(axis=1)
        if not feasible.all():
            raise MatchingError("no feasible transition into GPS fix "
                                f"{int(np.argmin(feasible)) + 1}")

        states = [int(np.argmax(lattice[-1]))]
        for pointers in back[::-1]:
            states.append(int(pointers[states[-1]]))
        states.reverse()
        return states

    def _transition_tensor(self, points: Sequence[GPSPoint],
                           eids: np.ndarray, ratios: np.ndarray,
                           valid: np.ndarray) -> np.ndarray:
        """(T-1, K, K) transition log-probabilities between consecutive
        padded columns; ``-inf`` wherever either state is padding."""
        cfg = self.config
        starts, ends, lengths = self.net.edge_arrays()
        lens = lengths[eids]
        xs = np.fromiter((p.x for p in points), np.float64, len(points))
        ys = np.fromiter((p.y for p in points), np.float64, len(points))
        displacement = np.hypot(xs[1:] - xs[:-1],
                                ys[1:] - ys[:-1])[:, None, None]
        # One SSSP row per distinct edge-end vertex of the trajectory.
        end_a = ends[eids[:-1]]
        uniq, inverse = np.unique(end_a[valid[:-1]], return_inverse=True)
        slot = np.zeros(end_a.shape, dtype=np.int64)
        slot[valid[:-1]] = inverse
        rows = self._sssp_cache.get_many(uniq.tolist(), self._sssp_rows)
        table = np.stack(rows) if rows else np.empty((0, 0))
        between = table[slot[:, :, None], starts[eids[1:]][:, None, :]]
        ratio_a, ratio_b = ratios[:-1, :, None], ratios[1:, None, :]
        len_a = lens[:-1, :, None]
        tail = (1.0 - ratio_a) * len_a                # (T-1, K, 1)
        head = ratio_b * lens[1:, None, :]            # (T-1, 1, K)
        # Same operand order as the scalar `tail + between + head`.
        route = (tail + between) + head
        same = (eids[:-1, :, None] == eids[1:, None, :]) \
            & (ratio_b >= ratio_a)
        route = np.where(same, (ratio_b - ratio_a) * len_a, route)
        diff = np.abs(route - displacement)
        penalty = -diff / cfg.beta
        # Unreachable pairs have route == inf, hence penalty == -inf,
        # matching the reference's `route is None -> -inf`.
        prune = route > cfg.max_route_factor * displacement + 200.0
        trans = np.where(prune, penalty - 50.0, penalty)
        trans[~(valid[:-1, :, None] & valid[1:, None, :])] = -np.inf
        return trans

    def _sssp_rows(self, vertices: List[int]) -> List[np.ndarray]:
        """Cache misses of one trajectory: a single many-source SSSP,
        split into rows that do not pin the whole block."""
        return [row.copy() for row in dijkstra_sssp(self.net, vertices)]

    def _emission(self, cand: Candidate) -> float:
        sigma = self.config.sigma
        return float(-0.5 * (cand.distance / sigma) ** 2
                     - np.log(sigma * np.sqrt(2 * np.pi)))

    def _transition(self, a: Candidate, b: Candidate,
                    displacement: float) -> float:
        route = self._route_distance(a, b)
        if route is None:
            return -np.inf
        diff = abs(route - displacement)
        penalty = -diff / self.config.beta
        # Soft prune: absurd detours get a heavy (but finite) extra
        # penalty rather than -inf, so near-stationary fixes in congestion
        # (displacement ~ GPS noise) never strand the Viterbi lattice.
        if route > self.config.max_route_factor * displacement + 200.0:
            penalty -= 50.0
        return float(penalty)

    def _route_distance(self, a: Candidate, b: Candidate) -> Optional[float]:
        """Network distance between two candidate positions.

        Same edge, forward order: simply the ratio gap.  Otherwise: distance
        from a's position to the end of its edge, a shortest path to the
        start of b's edge, plus b's partial edge.
        """
        net = self.net
        edge_a, edge_b = net.edge(a.edge_id), net.edge(b.edge_id)
        if a.edge_id == b.edge_id and b.ratio >= a.ratio:
            return (b.ratio - a.ratio) * edge_a.length
        route = self._route(edge_a.end, edge_b.start)
        if route is None:
            return None
        tail = (1.0 - a.ratio) * edge_a.length
        head = b.ratio * edge_b.length
        return tail + route[1] + head

    def _route(self, u: int, v: int
               ) -> Optional[Tuple[Tuple[int, ...], float]]:
        """Shortest path ``u -> v`` as ``(edge ids, length)``, ``None``
        when ``v`` is unreachable; memoised per vertex pair."""
        # None is a cached value, so a miss is told by the sentinel.
        route = self._route_cache.get((u, v), LRUCache._MISSING)
        if route is LRUCache._MISSING:
            try:
                edges, length = dijkstra(self.net, u, v)
                route = tuple(edges), length
            except NoPathError:
                route = None
            self._route_cache.put((u, v), route)
        return route

    # ------------------------------------------------------------------
    # Path expansion
    # ------------------------------------------------------------------
    def _expand_path(self, states: List[int],
                     columns: List[List[Candidate]]
                     ) -> Tuple[List[int], List[float]]:
        """Expand matched candidates into a connected edge sequence.

        Returns the edge sequence and, aligned with the GPS fixes, each
        fix's cumulative route position (metres from the trip origin) for
        interval interpolation.
        """
        net = self.net
        cands = [columns[t][s] for t, s in enumerate(states)]
        edge_seq: List[int] = [cands[0].edge_id]
        first_edge_len = net.edge(cands[0].edge_id).length
        origin_offset = cands[0].ratio * first_edge_len
        # Route position of the first fix relative to path start (which we
        # define as the entry point of the first edge at the start ratio).
        positions: List[float] = [0.0]
        travelled = 0.0

        for prev, cur in zip(cands, cands[1:]):
            if cur.edge_id == edge_seq[-1]:
                # Same edge: position advances by the ratio delta (clamped
                # at zero in case of GPS jitter moving slightly backwards).
                edge_len = net.edge(cur.edge_id).length
                last_ratio = self._ratio_on_last_edge(
                    edge_seq, positions, travelled, prev, cur)
                delta = max(cur.ratio - last_ratio, 0.0) * edge_len
                travelled += delta
                positions.append(travelled)
                continue
            # Different edge: walk the shortest path between them.
            edge_prev = net.edge(edge_seq[-1])
            edge_cur = net.edge(cur.edge_id)
            prev_ratio = self._ratio_on_last_edge(
                edge_seq, positions, travelled, prev, cur)
            travelled += (1.0 - prev_ratio) * edge_prev.length
            route = self._route(edge_prev.end, edge_cur.start)
            if route is None:
                raise MatchingError("matched states are disconnected")
            gap_edges, gap_len = route
            edge_seq.extend(gap_edges)
            travelled += gap_len
            edge_seq.append(cur.edge_id)
            travelled += cur.ratio * edge_cur.length
            positions.append(travelled)

        return edge_seq, positions

    def _ratio_on_last_edge(self, edge_seq, positions, travelled,
                            prev: Candidate, cur: Candidate) -> float:
        """Ratio already covered on the current last edge of the path."""
        if prev.edge_id == edge_seq[-1]:
            return prev.ratio
        return 0.0


def _padded_columns(columns: List[List[Candidate]]
                    ) -> Tuple[np.ndarray, ...]:
    """(edge_ids, ratios, distances, valid) of the candidate columns as
    ``(T, K)`` arrays; each row holds its column's candidates in order,
    then padding (``valid`` False, edge id 0)."""
    sizes = np.fromiter(map(len, columns), np.int64, len(columns))
    valid = np.arange(sizes.max()) < sizes[:, None]
    flat = [cand for col in columns for cand in col]
    count = len(flat)
    eids = np.zeros(valid.shape, dtype=np.int64)
    ratios = np.zeros(valid.shape)
    dists = np.zeros(valid.shape)
    eids[valid] = np.fromiter((c.edge_id for c in flat), np.int64, count)
    ratios[valid] = np.fromiter((c.ratio for c in flat), np.float64, count)
    dists[valid] = np.fromiter((c.distance for c in flat), np.float64,
                               count)
    return eids, ratios, dists, valid
