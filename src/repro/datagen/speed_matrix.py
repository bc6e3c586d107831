"""Traffic-condition speed matrices (paper Section 4.5).

The whole city area is split into fixed-size grids (the paper uses
200m x 200m); every Δt minutes the average observed speed per grid cell is
computed from recent trajectories.  The matrix closest before a trip's
departure time is its "current traffic condition" feature, consumed by the
External Features Encoder's CNN.

Two store flavours live here: the batch :class:`SpeedMatrixStore` built
once from historical trips, and :class:`LiveSpeedStore`, an overlay that
lets ``repro.streaming`` replace individual period slices with freshly
estimated live traffic while untouched periods keep answering from the
batch store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..roadnet.graph import RoadNetwork
from ..trajectory.model import TripRecord


@dataclass
class SpeedGridConfig:
    cell_metres: float = 200.0
    period_seconds: float = 300.0     # Δt, every 5 minutes per the paper

    def __post_init__(self):
        if self.cell_metres <= 0 or self.period_seconds <= 0:
            raise ValueError("cell size and period must be positive")


class SpeedMatrixStore:
    """Time-indexed grid of average speeds computed from trip records."""

    def __init__(self, net: RoadNetwork, trips: Sequence[TripRecord],
                 horizon_seconds: float,
                 config: Optional[SpeedGridConfig] = None):
        accumulator = SpeedMatrixAccumulator(net, horizon_seconds, config)
        accumulator.add_trips(trips)
        accumulator.finalize_into(self)

    # ------------------------------------------------------------------
    def _cell(self, x: float, y: float) -> Tuple[int, int]:
        c = int(np.clip((x - self.min_x) // self.config.cell_metres,
                        0, self.cols - 1))
        r = int(np.clip((y - self.min_y) // self.config.cell_metres,
                        0, self.rows - 1))
        return r, c

    def period_before(self, t: float) -> int:
        """Index of the last completed period before time ``t`` (clipped
        into the store's horizon; out-of-horizon times reuse the final
        period rather than failing)."""
        if t < 0:
            raise ValueError("time must be non-negative")
        return min(max(int(t // self.config.period_seconds) - 1, 0),
                   self.periods - 1)

    def matrix_at(self, period: int) -> np.ndarray:
        """The raw mean-speed matrix of one period index."""
        if not 0 <= period < self.periods:
            raise ValueError(f"period {period} outside [0, {self.periods})")
        return self._matrices[period]

    def matrix_before(self, t: float) -> np.ndarray:
        """The speed matrix of the last completed period before time t."""
        return self.matrix_at(self.period_before(t))

    def normalized_matrix_at(self, period: int) -> np.ndarray:
        """Matrix scaled to ~[0, 1] by the global mean for stable training."""
        scale = 2.0 * max(self.global_mean_speed, 1e-6)
        return np.clip(self.matrix_at(period) / scale, 0.0, 2.0)

    def normalized_matrix_before(self, t: float) -> np.ndarray:
        """:meth:`normalized_matrix_at` the period before time ``t``."""
        return self.normalized_matrix_at(self.period_before(t))

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def matrices(self) -> np.ndarray:
        """The whole (periods, rows, cols) stack of raw mean speeds."""
        return self._matrices

    def close(self) -> None:
        """Release the matrix stack's memory map when the store was
        opened from a dataset directory; a no-op for in-memory stores.

        ``from_arrays`` wraps its input in ``np.asarray``, which turns a
        ``np.memmap`` into a base-class view — the map itself then hangs
        off ``.base``, so both levels are checked.
        """
        mm = getattr(self._matrices, "_mmap", None)
        if mm is None:
            mm = getattr(getattr(self._matrices, "base", None),
                         "_mmap", None)
        if mm is not None and not mm.closed:
            mm.close()

    # -- persistence ----------------------------------------------------
    def save(self, path: str) -> str:
        """Write the full store (matrices + grid geometry) to one npz."""
        from ..nn.serialization import save_arrays
        return save_arrays(path, dict(
            matrices=self._matrices,
            global_mean_speed=np.array(self.global_mean_speed),
            origin=np.array([self.min_x, self.min_y]),
            grid=np.array([self.rows, self.cols, self.periods]),
            config=np.array([self.config.cell_metres,
                             self.config.period_seconds])))

    @classmethod
    def from_arrays(cls, matrices: np.ndarray, min_x: float, min_y: float,
                    config: SpeedGridConfig,
                    global_mean_speed: Optional[float] = None
                    ) -> "SpeedMatrixStore":
        """Build a store directly from a (periods, rows, cols) stack —
        the constructor shared by :meth:`load` and the streaming
        estimator's materialised slices."""
        matrices = np.asarray(matrices, dtype=float)
        if matrices.ndim != 3:
            raise ValueError("matrices must be (periods, rows, cols)")
        store = cls.__new__(cls)
        store.config = config
        store.min_x, store.min_y = float(min_x), float(min_y)
        store.periods, store.rows, store.cols = matrices.shape
        store._matrices = matrices
        store.global_mean_speed = float(
            matrices.mean() if global_mean_speed is None
            else global_mean_speed)
        return store

    @classmethod
    def load(cls, path: str) -> "SpeedMatrixStore":
        """Reload a store written by :meth:`save` (bit-identical slices)."""
        with np.load(path) as data:
            cell_metres, period_seconds = data["config"]
            store = cls.from_arrays(
                data["matrices"],
                min_x=float(data["origin"][0]),
                min_y=float(data["origin"][1]),
                config=SpeedGridConfig(cell_metres=float(cell_metres),
                                       period_seconds=float(period_seconds)),
                global_mean_speed=float(data["global_mean_speed"]))
        return store


def edge_cell_indices(net: RoadNetwork, store) -> Tuple[np.ndarray,
                                                        np.ndarray]:
    """Per-edge (row, col) grid cells of every edge midpoint.

    Vectorised companion to ``SpeedMatrixStore._cell``: one O(E) pass
    that the streaming estimator and the route baseline reuse instead of
    re-deriving cells per observation.
    """
    starts = np.empty((net.num_edges, 2))
    ends = np.empty((net.num_edges, 2))
    for eid in range(net.num_edges):
        a, b = net.edge_vector(eid)
        starts[eid] = a
        ends[eid] = b
    mids = (starts + ends) / 2.0
    cell = store.config.cell_metres
    cols = np.clip(((mids[:, 0] - store.min_x) // cell).astype(int),
                   0, store.cols - 1)
    rows = np.clip(((mids[:, 1] - store.min_y) // cell).astype(int),
                   0, store.rows - 1)
    return rows, cols


class SpeedMatrixAccumulator:
    """Incremental builder behind :class:`SpeedMatrixStore`.

    The one-shot constructor and the chunked out-of-core pipeline both
    funnel their observations through ``add``, so a chunked build is
    bitwise identical to a one-shot build by construction: per-edge
    speeds, grid cells and period indices are computed with the same
    expressions, and ``np.add.at`` applies duplicate cell hits
    sequentially — the exact float addition order of the original
    per-element loop.
    """

    def __init__(self, net: RoadNetwork, horizon_seconds: float,
                 config: Optional[SpeedGridConfig] = None):
        self.config = config or SpeedGridConfig()
        cfg = self.config
        min_x, min_y, max_x, max_y = net.bounding_box()
        self.min_x, self.min_y = min_x, min_y
        self.rows = max(int(np.ceil((max_y - min_y) / cfg.cell_metres)), 1)
        self.cols = max(int(np.ceil((max_x - min_x) / cfg.cell_metres)), 1)
        self.periods = max(int(np.ceil(horizon_seconds
                                       / cfg.period_seconds)), 1)
        self._sums = np.zeros((self.periods, self.rows, self.cols))
        self._counts = np.zeros_like(self._sums)
        self._edge_lengths = np.array(
            [net.edge(eid).length for eid in range(net.num_edges)])
        self._edge_rows, self._edge_cols = edge_cell_indices(net, self)

    def add(self, edge_ids: np.ndarray, intervals: np.ndarray) -> None:
        """Fold one trajectory's (edge_id, [enter, exit]) rows in."""
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        intervals = np.asarray(intervals, dtype=float)
        if len(edge_ids) == 0:
            return
        durations = intervals[:, 1] - intervals[:, 0]
        keep = durations > 0
        if not keep.all():
            edge_ids = edge_ids[keep]
            intervals = intervals[keep]
            durations = durations[keep]
        if len(edge_ids) == 0:
            return
        speeds = self._edge_lengths[edge_ids] / durations
        p = np.minimum(
            (intervals[:, 0] // self.config.period_seconds).astype(np.int64),
            self.periods - 1)
        r = self._edge_rows[edge_ids]
        c = self._edge_cols[edge_ids]
        np.add.at(self._sums, (p, r, c), speeds)
        np.add.at(self._counts, (p, r, c), 1.0)

    def add_trips(self, trips: Sequence[TripRecord]) -> None:
        for trip in trips:
            traj = trip.trajectory
            if traj is None:
                continue
            edges, intervals = traj.encoder_arrays()
            self.add(edges, intervals)

    def finalize_into(self, store: SpeedMatrixStore) -> SpeedMatrixStore:
        """Write the finished matrices into ``store`` (empty cells fall
        back to the global mean so the CNN sees a dense matrix; the
        paper does not specify, any constant imputation preserves the
        signal in observed cells)."""
        sums, counts = self._sums, self._counts
        global_mean = sums.sum() / max(counts.sum(), 1.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = np.where(counts > 0, sums / np.maximum(counts, 1.0),
                            global_mean)
        store.config = self.config
        store.min_x, store.min_y = self.min_x, self.min_y
        store.rows, store.cols = self.rows, self.cols
        store.periods = self.periods
        store._matrices = mean
        store.global_mean_speed = float(global_mean)
        return store

    def finalize(self) -> SpeedMatrixStore:
        return self.finalize_into(SpeedMatrixStore.__new__(SpeedMatrixStore))


class LiveSpeedStore:
    """A :class:`SpeedMatrixStore`-compatible overlay of live slices.

    Periods updated from the stream answer from the live estimate; every
    other period falls through to the base (training-time) store.  The
    normalisation scale stays the *base* store's global mean — the model
    was trained against that scale, so live congestion must show up as
    genuinely lower normalised values, not be washed out by a rescale.

    ``version`` increments on every slice update; the serving layer's
    :class:`~repro.serving.cache.SpeedSliceCache` folds it into its keys
    so a stale cached slice can never outlive the state it was cut from.
    """

    def __init__(self, base: SpeedMatrixStore):
        self.base = base
        self._live: Dict[int, np.ndarray] = {}
        self.version = 0

    # Grid geometry delegates to the base store.
    @property
    def config(self) -> SpeedGridConfig:
        return self.base.config

    @property
    def rows(self) -> int:
        return self.base.rows

    @property
    def cols(self) -> int:
        return self.base.cols

    @property
    def periods(self) -> int:
        return self.base.periods

    @property
    def min_x(self) -> float:
        return self.base.min_x

    @property
    def min_y(self) -> float:
        return self.base.min_y

    @property
    def shape(self) -> Tuple[int, int]:
        return self.base.shape

    @property
    def global_mean_speed(self) -> float:
        return self.base.global_mean_speed

    @property
    def live_periods(self) -> List[int]:
        return sorted(self._live)

    def update_slice(self, period: int, matrix: np.ndarray) -> int:
        """Overlay one period's live matrix; returns the new version."""
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != self.base.shape:
            raise ValueError(f"slice shape {matrix.shape} != grid "
                             f"{self.base.shape}")
        period = int(period)
        if not 0 <= period < self.base.periods:
            raise ValueError(f"period {period} outside "
                             f"[0, {self.base.periods})")
        self._live[period] = matrix
        self.version += 1
        return self.version

    def period_before(self, t: float) -> int:
        return self.base.period_before(t)

    def matrix_at(self, period: int) -> np.ndarray:
        if not 0 <= period < self.base.periods:
            raise ValueError(f"period {period} outside "
                             f"[0, {self.base.periods})")
        live = self._live.get(int(period))
        return live if live is not None else self.base.matrix_at(period)

    # Period lookup and normalisation are the base store's, applied to
    # this overlay's ``matrix_at`` (scale: the base global mean).
    matrix_before = SpeedMatrixStore.matrix_before
    normalized_matrix_at = SpeedMatrixStore.normalized_matrix_at
    normalized_matrix_before = SpeedMatrixStore.normalized_matrix_before
