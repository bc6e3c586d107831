"""Uniform-grid spatial index over road-network edges.

Supports the two geometric queries the system needs:

* nearest-edge / k-nearest-edge search — used when matching the OD input's
  GPS points onto road segments (Section 3: "for g[1] and g[-1] that are two
  end points matched on road segments"), and for map-matching candidate
  generation;
* radius search — used by the HMM matcher to enumerate candidate segments
  within a GPS error radius.

Edges are binned into every grid cell their bounding box overlaps (a CSR
cell → edge table).  A query walks rings of cells outward from the query
point's cell until a hit is guaranteed correct.  For every start cell the
edges of the first rings are precomputed in the walk's first-seen order,
so a whole batch of points (a serving micro-batch, a trajectory's fixes)
is answered with one gather, one vectorised projection and one sort.  The
answers, including the order of tied reverse-twin edges, are those of the
scalar walk; only points whose nearest answer lies beyond ring 1 (far
outside the grid) take the scalar walk itself.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from .graph import RoadNetwork

Hit = Tuple[int, float, float]      # (edge_id, distance, ratio)
# Points per vectorised pass: bounds the temporary arrays of a long
# trajectory's candidate query (~200 ring entries per point).
CHUNK = 128


def _ragged(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(group, position) of every item of consecutive groups of the
    given sizes."""
    group = np.arange(len(counts)).repeat(counts)
    pos = np.arange(len(group)) - (counts.cumsum() - counts)[group]
    return group, pos


def _ring_cells(cx: int, cy: int, ring: int) -> List[Tuple[int, int]]:
    """Cells of one ring around (cx, cy), in the walk's order."""
    if ring == 0:
        return [(cx, cy)]
    cells = []
    for dx in range(-ring, ring + 1):
        cells.append((cx + dx, cy - ring))
        cells.append((cx + dx, cy + ring))
    for dy in range(-ring + 1, ring):
        cells.append((cx - ring, cy + dy))
        cells.append((cx + ring, cy + dy))
    return cells


class SpatialIndex:
    """Grid index over the edges of a :class:`RoadNetwork`."""

    def __init__(self, net: RoadNetwork, cell_size: float = 250.0):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.net = net
        self.cell_size = float(cell_size)
        min_x, min_y, max_x, max_y = net.bounding_box()
        # Pad so boundary points hash into valid cells.
        self.min_x = min_x - cell_size
        self.min_y = min_y - cell_size
        self.cols = int(np.ceil((max_x - self.min_x) / cell_size)) + 2
        self.rows = int(np.ceil((max_y - self.min_y) / cell_size)) + 2

        # Flat per-edge segment geometry (start point, direction, squared
        # length) from the vertex coordinate arrays.
        verts = list(net.vertices())
        slot = {v.vertex_id: i for i, v in enumerate(verts)}
        vx = np.array([v.x for v in verts])
        vy = np.array([v.y for v in verts])
        ends = np.array([(slot[e.start], slot[e.end]) for e in net.edges()],
                        dtype=np.int64).reshape(-1, 2)
        ax, ay = vx[ends[:, 0]], vy[ends[:, 0]]
        bx, by = vx[ends[:, 1]], vy[ends[:, 1]]
        dx, dy = bx - ax, by - ay
        self._geom = (ax, ay, dx, dy, dx * dx + dy * dy)

        # CSR cell -> edges table, cell id ``cx * rows + cy``; every cell
        # lists its edges in id order.
        cx0, cy0 = self._cells_of(np.minimum(ax, bx), np.minimum(ay, by))
        cx1, cy1 = self._cells_of(np.maximum(ax, bx), np.maximum(ay, by))
        ny = cy1 - cy0 + 1
        edge, k = _ragged((cx1 - cx0 + 1) * ny)
        cells = ((cx0[edge] + k // ny[edge]) * self.rows
                 + cy0[edge] + k % ny[edge])
        self._cell_ptr = np.concatenate(
            ([0], np.cumsum(np.bincount(cells,
                                        minlength=self.rows * self.cols))))
        self._cell_eids = edge[np.argsort(cells, kind="stable")]
        self._cell_len = np.diff(self._cell_ptr)
        # Ring tables by ring count, built on first use.
        self._tables: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    # Grid helpers
    # ------------------------------------------------------------------
    def _cells_of(self, xs: np.ndarray, ys: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
        return (((xs - self.min_x) // self.cell_size).astype(np.int64),
                ((ys - self.min_y) // self.cell_size).astype(np.int64))

    def _start_cells(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Cell ids to start each search from; clamped so far-away query
        points still walk outward over the populated grid (clamped as
        floats, so coordinates beyond the int64 range clamp correctly)."""
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("query coordinates must be finite")
        cx = np.minimum(np.maximum((xs - self.min_x) // self.cell_size, 0),
                        self.cols - 1)
        cy = np.minimum(np.maximum((ys - self.min_y) // self.cell_size, 0),
                        self.rows - 1)
        return cx.astype(np.int64) * self.rows + cy.astype(np.int64)

    def _cell_edges(self, cx: int, cy: int) -> List[int]:
        if not (0 <= cx < self.cols and 0 <= cy < self.rows):
            return []
        c = cx * self.rows + cy
        return self._cell_eids[self._cell_ptr[c]:self._cell_ptr[c + 1]
                               ].tolist()

    def _ring_table(self, rings: int) -> Tuple[np.ndarray, np.ndarray]:
        """CSR start cell -> distinct edges of rings ``0..rings`` around
        it, in the walk's first-seen order.  Ring 0 comes first, so a
        cell's first ``len(cell's own edges)`` entries are ring 0."""
        # Rings past the grid's extent hold no cells: same table.
        rings = min(rings, max(self.rows, self.cols))
        table = self._tables.get(rings)
        if table is None:
            offsets = np.array([cell for r in range(rings + 1)
                                for cell in _ring_cells(0, 0, r)],
                               dtype=np.int64)
            num_cells = self.rows * self.cols
            counts, eids = [], []
            # Blocks of start cells bound the temporary arrays.
            for first_cell in range(0, num_cells, CHUNK):
                block = np.arange(first_cell,
                                  min(first_cell + CHUNK, num_cells))
                sx, sy = np.divmod(block, self.rows)
                nx = sx[:, None] + offsets[:, 0]
                ny = sy[:, None] + offsets[:, 1]
                inside = ((nx >= 0) & (nx < self.cols)
                          & (ny >= 0) & (ny < self.rows)).ravel()
                cell = np.where(inside, (nx * self.rows + ny).ravel(), 0)
                lo = self._cell_ptr[cell]
                count = np.where(inside, self._cell_ptr[cell + 1] - lo, 0)
                pair, pos = _ragged(count)
                block_eids = self._cell_eids[lo[pair] + pos]
                start = pair // len(offsets)
                # Keep each (start cell, edge)'s first occurrence, in order.
                _, keep = np.unique(start * self.net.num_edges + block_eids,
                                    return_index=True)
                keep.sort()
                counts.append(np.bincount(start[keep], minlength=len(block)))
                eids.append(block_eids[keep])
            table = (np.concatenate(([0], np.cumsum(np.concatenate(counts)))),
                     np.concatenate(eids))
            self._tables[rings] = table
        return table

    def _gather(self, rings: int, xs: np.ndarray, ys: np.ndarray
                ) -> Tuple[np.ndarray, ...]:
        """``(cells, point, position, edge)``: each point's start cell,
        then one entry per ring-table edge of that cell."""
        ptr, eids = self._ring_table(rings)
        cells = self._start_cells(xs, ys)
        lo = ptr[cells]
        point, pos = _ragged(ptr[cells + 1] - lo)
        return cells, point, pos, eids[lo[point] + pos]

    def project_batch(self, edge_ids: np.ndarray, xs, ys
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`RoadNetwork.project_point`: (distances,
        ratios) of point ``(xs, ys)`` (scalars, or arrays aligned with
        ``edge_ids``) on each edge.

        Bit-identical to per-edge scalar projection (same expression
        order; two-term dots expand to the same ``x*x + y*y``).
        """
        ax, ay, dx, dy, seg_len_sq = self._geom
        e = np.asarray(edge_ids, dtype=np.int64)
        eax, eay, edx, edy = ax[e], ay[e], dx[e], dy[e]
        t = np.clip(((xs - eax) * edx + (ys - eay) * edy) / seg_len_sq[e],
                    0.0, 1.0)
        dist = np.hypot(xs - (eax + t * edx), ys - (eay + t * edy))
        return dist, t

    @staticmethod
    def _chunked(query, xs, ys, arg) -> List[List[Hit]]:
        """``query(xs, ys, arg)`` over blocks of at most :data:`CHUNK`
        points."""
        xs = np.asarray(xs, dtype=np.float64).reshape(-1)
        ys = np.asarray(ys, dtype=np.float64).reshape(-1)
        if xs.shape != ys.shape:
            raise ValueError("xs and ys must have the same length")
        out: List[List[Hit]] = []
        for lo in range(0, len(xs), CHUNK):
            out += query(xs[lo:lo + CHUNK], ys[lo:lo + CHUNK], arg)
        return out

    @staticmethod
    def _split(n: int, point: np.ndarray, eid: np.ndarray, dist: np.ndarray,
               ratio: np.ndarray) -> List[List[Hit]]:
        """Per-point hit lists from entries grouped by point."""
        hits = list(zip(eid.tolist(), dist.tolist(), ratio.tolist()))
        out, lo = [], 0
        for hi in np.cumsum(np.bincount(point, minlength=n)).tolist():
            out.append(hits[lo:hi])
            lo = hi
        return out

    # ------------------------------------------------------------------
    # Batch queries
    # ------------------------------------------------------------------
    def k_nearest_edges_batch(self, xs: Sequence[float], ys: Sequence[float],
                              k: int = 5) -> List[List[Hit]]:
        """:meth:`k_nearest_edges` for every point ``(xs[i], ys[i])``."""
        if k < 1:
            raise ValueError("k must be >= 1")
        return self._chunked(self._k_nearest_chunk, xs, ys, k)

    def _k_nearest_chunk(self, xs: np.ndarray, ys: np.ndarray, k: int
                         ) -> List[List[Hit]]:
        n = len(xs)
        cells, point, pos, eid = self._gather(1, xs, ys)
        dist, ratio = self.project_batch(eid, xs[point], ys[point])
        # The walk sorts its hits as (distance, edge id) tuples.
        order = np.lexsort((eid, dist, point))
        point, pos, eid = point[order], pos[order], eid[order]
        dist, ratio = dist[order], ratio[order]
        # The walk stops after ring 0 when its k-th hit lies at distance
        # 0, after ring 1 when it lies within one cell; any other point
        # walks on.  Ranks count within each point's sorted entries.
        total = np.bincount(point, minlength=n)
        start = total.cumsum() - total
        rank = np.arange(len(point)) - start[point]
        idx0 = np.flatnonzero(pos < self._cell_len[cells][point])
        total0 = np.bincount(point[idx0], minlength=n)
        start0 = total0.cumsum() - total0
        rank0 = np.arange(len(idx0)) - start0[point[idx0]]
        done0 = total0 >= k
        done0[done0] = dist[idx0[start0[done0] + k - 1]] <= 0.0
        done1 = (total >= k) & ~done0
        done1[done1] = dist[start[done1] + k - 1] <= self.cell_size
        take = (rank < k) & done1[point]
        take[idx0[(rank0 < k) & done0[point[idx0]]]] = True
        out = self._split(n, point[take], eid[take], dist[take], ratio[take])
        for i in np.flatnonzero(~(done0 | done1)).tolist():
            out[i] = self._walk_nearest(float(xs[i]), float(ys[i]), k,
                                        int(cells[i]))
        return out

    def nearest_edges(self, xs: Sequence[float], ys: Sequence[float]
                      ) -> List[Hit]:
        """:meth:`nearest_edge` for every point ``(xs[i], ys[i])``."""
        hits = self.k_nearest_edges_batch(xs, ys, k=1)
        if any(not h for h in hits):
            raise ValueError("spatial index is empty")
        return [h[0] for h in hits]

    def edges_within_batch(self, xs: Sequence[float], ys: Sequence[float],
                           radius: float) -> List[List[Hit]]:
        """:meth:`edges_within` for every point ``(xs[i], ys[i])``."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        return self._chunked(self._within_chunk, xs, ys, radius)

    def _within_chunk(self, xs: np.ndarray, ys: np.ndarray, radius: float
                      ) -> List[List[Hit]]:
        rings = int(np.ceil(radius / self.cell_size)) + 1
        _, point, _, eid = self._gather(rings, xs, ys)
        dist, ratio = self.project_batch(eid, xs[point], ys[point])
        keep = dist <= radius
        point, eid = point[keep], eid[keep]
        dist, ratio = dist[keep], ratio[keep]
        # Stable by distance, ties in first-seen order, grouped by point.
        order = np.argsort(dist, kind="stable")
        order = order[np.argsort(point[order], kind="stable")]
        return self._split(len(xs), point[order], eid[order], dist[order],
                           ratio[order])

    # ------------------------------------------------------------------
    # Point queries
    # ------------------------------------------------------------------
    def nearest_edge(self, x: float, y: float) -> Hit:
        """Closest edge to (x, y).

        Returns (edge_id, distance, ratio) where ``ratio`` is the projection
        position along the edge (Definition 1's position ratio).
        """
        return self.nearest_edges([x], [y])[0]

    def k_nearest_edges(self, x: float, y: float, k: int = 5) -> List[Hit]:
        """k closest edges, sorted by distance (ties by edge id)."""
        return self.k_nearest_edges_batch([x], [y], k)[0]

    def edges_within(self, x: float, y: float, radius: float) -> List[Hit]:
        """All edges whose distance to (x, y) is at most ``radius``,
        sorted by distance (ties in ring-walk order)."""
        return self.edges_within_batch([x], [y], radius)[0]

    def _walk_nearest(self, x: float, y: float, k: int, start: int
                      ) -> List[Hit]:
        """The scalar ring walk from start cell ``start``: expand rings
        until the k-th closest hit is final (a hit at distance d is final
        once the searched rings cover radius d)."""
        cx, cy = divmod(start, self.rows)
        best: List[Tuple[float, int, float]] = []
        seen: set[int] = set()
        for ring in range(max(self.rows, self.cols) + 1):
            for cell in _ring_cells(cx, cy, ring):
                for eid in self._cell_edges(*cell):
                    if eid in seen:
                        continue
                    seen.add(eid)
                    dist, ratio = self.net.project_point(eid, x, y)
                    best.append((dist, eid, ratio))
            if len(best) >= k:
                best.sort()
                if best[k - 1][0] <= ring * self.cell_size:
                    break
        best.sort()
        return [(eid, dist, ratio) for dist, eid, ratio in best[:k]]
