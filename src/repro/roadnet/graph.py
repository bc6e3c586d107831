"""Road network model (paper Section 2).

A road network is a directed, weighted graph ``G = <V, E>``: each edge is a
road segment ``e_k = <v1_k -> v-1_k, w_k>`` with a length weight, each vertex
an end point.  :class:`RoadNetwork` stores vertices with planar coordinates
(metres, a local projection of lon/lat) and provides the adjacency views the
rest of the system needs: outgoing/incoming edges, edge lookup by endpoint
pair, and geometric helpers (edge length, point projection).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple, TypeVar

import numpy as np

T = TypeVar("T")


@dataclass(frozen=True)
class Vertex:
    """A road-segment end point with planar coordinates in metres."""

    vertex_id: int
    x: float
    y: float

    @property
    def xy(self) -> Tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True)
class Edge:
    """A directed road segment ``<v1, v-1>`` with a length weight in metres.

    ``speed_limit`` (m/s) carries the free-flow speed used by the traffic
    simulator; ``road_class`` distinguishes arterials from side streets.
    """

    edge_id: int
    start: int
    end: int
    length: float
    speed_limit: float = 13.9        # ~50 km/h default
    road_class: str = "street"

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError(f"edge {self.edge_id} has non-positive length")
        if self.speed_limit <= 0:
            raise ValueError(f"edge {self.edge_id} has non-positive speed")


class RoadNetwork:
    """Directed weighted road graph with geometry.

    Vertices and edges are stored in insertion order; ``edge_id`` values are
    dense ``0..|E|-1`` so they double as indices into embedding matrices
    (Eq. 1 identifies each road segment by a unique id).
    """

    def __init__(self) -> None:
        self._vertices: Dict[int, Vertex] = {}
        self._edges: List[Edge] = []
        self._out: Dict[int, List[int]] = {}
        self._in: Dict[int, List[int]] = {}
        self._by_endpoints: Dict[Tuple[int, int], int] = {}
        # Array views derived from the graph, dropped on every mutation.
        self._derived: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_vertex(self, vertex_id: int, x: float, y: float) -> Vertex:
        if vertex_id in self._vertices:
            raise ValueError(f"duplicate vertex id {vertex_id}")
        vertex = Vertex(vertex_id, float(x), float(y))
        self._derived.clear()
        self._vertices[vertex_id] = vertex
        self._out.setdefault(vertex_id, [])
        self._in.setdefault(vertex_id, [])
        return vertex

    def add_edge(self, start: int, end: int, length: Optional[float] = None,
                 speed_limit: float = 13.9,
                 road_class: str = "street") -> Edge:
        if start not in self._vertices or end not in self._vertices:
            raise KeyError(f"unknown endpoint in edge <{start}, {end}>")
        if (start, end) in self._by_endpoints:
            raise ValueError(f"duplicate edge <{start}, {end}>")
        if start == end:
            raise ValueError("self-loop road segments are not supported")
        if length is None:
            length = self.euclidean(start, end)
        edge = Edge(len(self._edges), start, end, float(length),
                    float(speed_limit), road_class)
        self._edges.append(edge)
        self._out[start].append(edge.edge_id)
        self._in[end].append(edge.edge_id)
        self._by_endpoints[(start, end)] = edge.edge_id
        self._derived.clear()
        return edge

    def derived(self, key: str, build: Callable[["RoadNetwork"], T]) -> T:
        """``build(self)``, computed once and kept until the network
        next gains a vertex or an edge."""
        value = self._derived.get(key)
        if value is None:
            value = self._derived[key] = build(self)
        return value

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(starts, ends, lengths) of every edge, indexed by edge id."""
        return self.derived("edge_arrays", _edge_arrays)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def vertex(self, vertex_id: int) -> Vertex:
        return self._vertices[vertex_id]

    def vertices(self) -> Iterator[Vertex]:
        return iter(self._vertices.values())

    def edge(self, edge_id: int) -> Edge:
        return self._edges[edge_id]

    def edges(self) -> Iterator[Edge]:
        return iter(self._edges)

    def edge_between(self, start: int, end: int) -> Optional[Edge]:
        edge_id = self._by_endpoints.get((start, end))
        return None if edge_id is None else self._edges[edge_id]

    def out_edges(self, vertex_id: int) -> List[Edge]:
        return [self._edges[eid] for eid in self._out[vertex_id]]

    def in_edges(self, vertex_id: int) -> List[Edge]:
        return [self._edges[eid] for eid in self._in[vertex_id]]

    def successors(self, edge_id: int) -> List[Edge]:
        """Edges that can directly follow ``edge_id`` on a path."""
        return self.out_edges(self._edges[edge_id].end)

    def euclidean(self, v1: int, v2: int) -> float:
        a, b = self._vertices[v1], self._vertices[v2]
        return float(np.hypot(a.x - b.x, a.y - b.y))

    def edge_vector(self, edge_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """Start and end coordinates of an edge as arrays."""
        edge = self._edges[edge_id]
        a, b = self._vertices[edge.start], self._vertices[edge.end]
        return np.array(a.xy), np.array(b.xy)

    def point_at_ratio(self, edge_id: int, ratio: float) -> Tuple[float, float]:
        """Coordinates of the point a fraction ``ratio`` along an edge."""
        if not 0.0 <= ratio <= 1.0:
            raise ValueError(f"ratio must be in [0, 1], got {ratio}")
        a, b = self.edge_vector(edge_id)
        point = a + ratio * (b - a)
        return (float(point[0]), float(point[1]))

    def project_point(self, edge_id: int, x: float, y: float
                      ) -> Tuple[float, float]:
        """Project (x, y) onto an edge; returns (distance, ratio).

        ``ratio`` is the normalised position of the closest point along the
        segment — exactly the r[1] / r[-1] ratios of Definition 1.
        """
        edge = self._edges[edge_id]
        va = self._vertices[edge.start]
        vb = self._vertices[edge.end]
        dx, dy = vb.x - va.x, vb.y - va.y
        # Expanded scalar arithmetic (no 2-vector dots): keeps this
        # allocation-free and bit-identical to the vectorised
        # ``SpatialIndex.project_batch``, whose expressions mirror these.
        seg_len_sq = dx * dx + dy * dy
        t = ((x - va.x) * dx + (y - va.y) * dy) / seg_len_sq
        if t < 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
        return (float(np.hypot(x - (va.x + t * dx), y - (va.y + t * dy))),
                float(t))

    def bounding_box(self) -> Tuple[float, float, float, float]:
        """(min_x, min_y, max_x, max_y) over all vertices."""
        xs = [v.x for v in self._vertices.values()]
        ys = [v.y for v in self._vertices.values()]
        return (min(xs), min(ys), max(xs), max(ys))

    def total_length(self) -> float:
        return sum(e.length for e in self._edges)

    def __repr__(self) -> str:
        return (f"RoadNetwork(|V|={self.num_vertices}, "
                f"|E|={self.num_edges})")


def _edge_arrays(net: RoadNetwork
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    num = net.num_edges
    starts = np.fromiter((e.start for e in net.edges()), np.int64, num)
    ends = np.fromiter((e.end for e in net.edges()), np.int64, num)
    lengths = np.fromiter((e.length for e in net.edges()), np.float64, num)
    return starts, ends, lengths
