"""Shortest-path × live-speed baseline: the middle serving tier.

The first rung of the baseline ladder (ROADMAP item 5), shaped after
taxisim's ``predict_trip_duration``: route the OD pair over the road
network with per-edge costs ``length / cell_speed``, where the cell
speed comes from the speed-matrix slice in force at the departure time.
Reading the serving service's
:class:`~repro.datagen.speed_matrix.LiveSpeedStore`, the estimate tracks
*live* traffic, which makes it a far better degraded answer than the
time-bucketed historical average (TEMP): the serving fallback chain is model (tier 0) → route baseline (tier 1) → TEMP
(tier 2).

No learning happens here — the whole tier is one Dijkstra per query
over cached per-edge cell indices, so it stays available whenever the
model path is down.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from ..datagen.speed_matrix import SpeedMatrixStore, edge_cell_indices
from ..roadnet.graph import RoadNetwork
from ..roadnet.shortest_path import dijkstra
from ..trajectory.model import ODBatch, ODInput

# A floor on per-cell speeds (m/s): a cell observed only while gridlocked
# must still yield finite edge costs.
MIN_CELL_SPEED = 0.5


class RouteTimeBaseline:
    """Travel-time estimates from shortest paths under current speeds.

    Parameters
    ----------
    net:
        The road network shared with the rest of the serving stack.
    store:
        The speed store to read slices from; a live overlay's writes
        show in the next estimate.
    """

    def __init__(self, net: RoadNetwork, store: SpeedMatrixStore):
        self.net = net
        self._store = store
        self._rows, self._cols = edge_cell_indices(net, store)
        self._lengths = net.edge_arrays()[2]

    # ------------------------------------------------------------------
    def _edge_seconds(self, t: float) -> np.ndarray:
        """Per-edge traversal seconds under the slice in force at ``t``."""
        matrix = self._store.matrix_before(t)
        speeds = np.maximum(matrix[self._rows, self._cols], MIN_CELL_SPEED)
        return self._lengths / speeds

    def estimate_od(self, od: ODInput,
                    edge_seconds: Optional[np.ndarray] = None) -> float:
        """Seconds for one matched OD input (raises on unroutable pairs,
        letting the caller fall through to the next tier)."""
        if not od.is_matched:
            raise ValueError("route baseline needs matched edge ids")
        costs = (self._edge_seconds(od.depart_time)
                 if edge_seconds is None else edge_seconds)
        return self._route_seconds(od.origin_edge, od.destination_edge,
                                   od.ratio_start, od.ratio_end, costs)

    def _route_seconds(self, o_edge: int, d_edge: int, ratio_start: float,
                       ratio_end: float, costs: np.ndarray) -> float:
        if o_edge == d_edge:
            span = abs(ratio_end - ratio_start)
            return float(max(span * costs[o_edge], 1e-3))
        o, d = self.net.edge(o_edge), self.net.edge(d_edge)
        seconds = (1.0 - ratio_start) * costs[o_edge]
        if o.end != d.start:
            path, path_seconds = dijkstra(
                self.net, o.end, d.start,
                edge_cost=lambda eid: float(costs[eid]))
            seconds += path_seconds
        seconds += ratio_end * costs[d_edge]
        return float(max(seconds, 1e-3))

    def estimate_from_ods(self, ods: Union[ODBatch, Sequence[ODInput]]
                          ) -> np.ndarray:
        """Vector of seconds for a batch (an :class:`ODBatch` or
        :class:`ODInput` rows); the edge-cost table is computed once per
        distinct period of the batch and shared by its queries."""
        batch = ODBatch.from_rows(ods)
        if not len(batch):
            return np.array([])
        if (batch.origin_edge < 0).any() or (batch.destination_edge < 0).any():
            raise ValueError("route baseline needs matched edge ids")
        _, first, inverse = np.unique(
            self._store.periods_before(batch.depart_time),
            return_index=True, return_inverse=True)
        costs = [self._edge_seconds(t) for t in batch.depart_time[first]]
        rows = zip(inverse.reshape(-1).tolist(), batch.origin_edge.tolist(),
                   batch.destination_edge.tolist(),
                   batch.ratio_start.tolist(), batch.ratio_end.tolist())
        return np.array([self._route_seconds(o, d, rs, re, costs[k])
                         for k, o, d, rs, re in rows])
