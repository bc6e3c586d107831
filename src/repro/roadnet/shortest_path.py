"""Shortest-path routing over road networks.

Used by the trip simulator (route choice), the map matcher (transition
probabilities need network distances between candidate edges) and the TEMP
baseline (not directly, but its neighbourhood queries reuse the spatial
index).  Provides static Dijkstra / A* over edge lengths, a many-source
shortest-path kernel on :mod:`scipy.sparse.csgraph` for the static-length
case, and a time-dependent variant whose edge costs come from the traffic
model, plus a stochastic perturbed-cost router so two trips over the same
OD pair can take different routes (the phenomenon motivating the paper's
Example 1).
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .graph import RoadNetwork


class NoPathError(Exception):
    """Raised when no route exists between the requested vertices."""


def dijkstra(net: RoadNetwork, source: int, target: int,
             edge_cost: Optional[Callable[[int], float]] = None
             ) -> Tuple[List[int], float]:
    """Shortest path from ``source`` to ``target`` vertex.

    Parameters
    ----------
    edge_cost:
        Cost of traversing an edge id; defaults to edge length.

    Returns
    -------
    (edge_ids, total_cost)
    """
    if edge_cost is None:
        edge_cost = lambda eid: net.edge(eid).length  # noqa: E731
    dist: Dict[int, float] = {source: 0.0}
    prev_edge: Dict[int, int] = {}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    visited = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in visited:
            continue
        visited.add(v)
        if v == target:
            return _reconstruct(net, prev_edge, source, target), d
        for edge in net.out_edges(v):
            cost = edge_cost(edge.edge_id)
            if cost < 0:
                raise ValueError("negative edge cost")
            nd = d + cost
            if nd < dist.get(edge.end, np.inf):
                dist[edge.end] = nd
                prev_edge[edge.end] = edge.edge_id
                heapq.heappush(heap, (nd, edge.end))
    raise NoPathError(f"no path from {source} to {target}")


def dijkstra_sssp(net: RoadNetwork, sources) -> np.ndarray:
    """Shortest-path lengths from one or many sources to every vertex.

    ``sources`` is a vertex id (returns a ``(num_vertices,)`` row) or an
    array of them (returns ``(len(sources), num_vertices)`` rows, one per
    entry, duplicates included); unreachable vertices read ``np.inf``.
    Runs :func:`scipy.sparse.csgraph.dijkstra` over the network's cached
    CSR length matrix.  Edge lengths are positive and the graph has no
    parallel edges or self-loops, so every distance is the unique fixed
    point ``d[v] = min_u fl(d[u] + w_uv)`` and the rows are bit-identical
    to point-to-point :func:`dijkstra`, which is what lets the map
    matcher cache one row per source vertex.
    """
    # Imported on first use: serving replicas never run this and should
    # not pay the csgraph import.
    from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra
    lengths = net.derived("csr_lengths", _csr_lengths)
    indices = np.asarray(sources, dtype=np.int64)
    if indices.size == 0:
        return np.empty(indices.shape + (net.num_vertices,))
    return csgraph_dijkstra(lengths, directed=True, indices=indices)


def _csr_lengths(net: RoadNetwork):
    from scipy.sparse import csr_matrix
    starts, ends, lengths = net.edge_arrays()
    n = net.num_vertices
    return csr_matrix((lengths, (starts, ends)), shape=(n, n))


def astar(net: RoadNetwork, source: int, target: int,
          max_speed: Optional[float] = None) -> Tuple[List[int], float]:
    """A* over edge lengths with a Euclidean admissible heuristic.

    ``max_speed`` is unused for length costs but kept for symmetry with the
    time-dependent variant's heuristic scaling.
    """
    tx, ty = net.vertex(target).xy

    def heuristic(v: int) -> float:
        vert = net.vertex(v)
        return float(np.hypot(vert.x - tx, vert.y - ty))

    dist: Dict[int, float] = {source: 0.0}
    prev_edge: Dict[int, int] = {}
    heap: List[Tuple[float, int]] = [(heuristic(source), source)]
    visited = set()
    while heap:
        _, v = heapq.heappop(heap)
        if v in visited:
            continue
        visited.add(v)
        if v == target:
            return _reconstruct(net, prev_edge, source, target), dist[v]
        for edge in net.out_edges(v):
            nd = dist[v] + edge.length
            if nd < dist.get(edge.end, np.inf):
                dist[edge.end] = nd
                prev_edge[edge.end] = edge.edge_id
                heapq.heappush(heap, (nd + heuristic(edge.end), edge.end))
    raise NoPathError(f"no path from {source} to {target}")


def time_dependent_dijkstra(
        net: RoadNetwork, source: int, target: int, depart_time: float,
        travel_time_fn: Callable[[int, float], float]
) -> Tuple[List[int], float]:
    """Earliest-arrival routing under time-varying edge travel times.

    ``travel_time_fn(edge_id, enter_time)`` returns the seconds needed to
    traverse the edge when entered at ``enter_time``.  Assumes the FIFO
    property (leaving later never means arriving earlier), which the traffic
    model satisfies.

    Returns (edge_ids, total_travel_seconds).
    """
    arrival: Dict[int, float] = {source: depart_time}
    prev_edge: Dict[int, int] = {}
    heap: List[Tuple[float, int]] = [(depart_time, source)]
    visited = set()
    while heap:
        t, v = heapq.heappop(heap)
        if v in visited:
            continue
        visited.add(v)
        if v == target:
            return (_reconstruct(net, prev_edge, source, target),
                    t - depart_time)
        for edge in net.out_edges(v):
            dt = travel_time_fn(edge.edge_id, t)
            if dt <= 0:
                raise ValueError("travel time must be positive")
            at = t + dt
            if at < arrival.get(edge.end, np.inf):
                arrival[edge.end] = at
                prev_edge[edge.end] = edge.edge_id
                heapq.heappush(heap, (at, edge.end))
    raise NoPathError(f"no path from {source} to {target}")


def perturbed_route(net: RoadNetwork, source: int, target: int,
                    rng: np.random.Generator,
                    noise: float = 0.3) -> Tuple[List[int], float]:
    """Route under multiplicatively perturbed edge lengths.

    Samples one log-normal factor per edge and runs Dijkstra, modelling
    driver route choice diversity: repeated calls with different rng states
    return different (but sensible) routes for the same OD pair.
    """
    factors = np.exp(rng.normal(0.0, noise, size=net.num_edges))

    def cost(eid: int) -> float:
        return net.edge(eid).length * float(factors[eid])

    edges, _ = dijkstra(net, source, target, edge_cost=cost)
    true_length = sum(net.edge(e).length for e in edges)
    return edges, true_length


def path_length(net: RoadNetwork, edge_ids: List[int]) -> float:
    return sum(net.edge(eid).length for eid in edge_ids)


def is_connected_path(net: RoadNetwork, edge_ids: List[int]) -> bool:
    """True when consecutive edges share endpoints (a valid walk)."""
    for prev, nxt in zip(edge_ids, edge_ids[1:]):
        if net.edge(prev).end != net.edge(nxt).start:
            return False
    return True


def _reconstruct(net: RoadNetwork, prev_edge: Dict[int, int],
                 source: int, target: int) -> List[int]:
    path: List[int] = []
    v = target
    while v != source:
        eid = prev_edge[v]
        path.append(eid)
        v = net.edge(eid).start
    path.reverse()
    return path
