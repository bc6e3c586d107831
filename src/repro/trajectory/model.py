"""Trajectory data model (paper Section 2, Definitions 1-2).

A raw trajectory is a sequence of timestamped GPS points.  After
map-matching, a trajectory on the road network consists of

* a **spatio-temporal path** SP — a sequence of (road segment, time
  interval) tuples <e_i, [t_i[1], t_i[-1]]>, and
* two **position ratios** PR = <r[1], r[-1]> locating the true origin and
  destination inside the first and last segments.

An OD input (Definition 2) is (origin point, destination point, departure
time) plus optional external features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class GPSPoint:
    """A timestamped planar position (metres in the local projection)."""

    x: float
    y: float
    timestamp: float

    @property
    def xy(self) -> Tuple[float, float]:
        return (self.x, self.y)


@dataclass
class RawTrajectory:
    """An ordered sequence of GPS points as emitted by a vehicle."""

    points: List[GPSPoint]

    def __post_init__(self):
        if len(self.points) < 2:
            raise ValueError("a trajectory needs at least two points")
        times = [p.timestamp for p in self.points]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("GPS timestamps must be non-decreasing")

    @property
    def origin(self) -> GPSPoint:
        return self.points[0]

    @property
    def destination(self) -> GPSPoint:
        return self.points[-1]

    @property
    def travel_time(self) -> float:
        return self.points[-1].timestamp - self.points[0].timestamp

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class PathElement:
    """One tuple of the spatio-temporal path: <e_i, [t_i[1], t_i[-1]]>."""

    edge_id: int
    enter_time: float
    exit_time: float

    def __post_init__(self):
        if self.exit_time < self.enter_time:
            raise ValueError(
                f"edge {self.edge_id}: exit before enter "
                f"({self.exit_time} < {self.enter_time})")

    @property
    def duration(self) -> float:
        return self.exit_time - self.enter_time

    @property
    def interval(self) -> Tuple[float, float]:
        return (self.enter_time, self.exit_time)


@dataclass
class MatchedTrajectory:
    """A trajectory on the road network: ``<SP, PR>`` of Definition 1."""

    path: List[PathElement]
    ratio_start: float
    ratio_end: float

    def __post_init__(self):
        if not self.path:
            raise ValueError("spatio-temporal path is empty")
        if not (0.0 <= self.ratio_start <= 1.0):
            raise ValueError(f"r[1] must be in [0, 1], got {self.ratio_start}")
        if not (0.0 <= self.ratio_end <= 1.0):
            raise ValueError(f"r[-1] must be in [0, 1], got {self.ratio_end}")
        for prev, nxt in zip(self.path, self.path[1:]):
            if nxt.enter_time < prev.exit_time - 1e-9:
                raise ValueError("path time intervals must be ordered")

    @property
    def edge_ids(self) -> List[int]:
        return [el.edge_id for el in self.path]

    def encoder_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Contiguous ``(edge_ids, intervals)`` arrays for the encoders.

        Returns an int64 ``(n,)`` array of edge ids and a float64
        ``(n, 2)`` array of (enter, exit) times.  Computed once and
        cached on the instance, so repeated epochs over the same batch
        skip the per-element Python loop.  The cache is invalidated
        when ``self.path`` is rebound or resized; :class:`PathElement`
        is frozen, so in-place element mutation cannot occur.
        """
        cached = self.__dict__.get("_encoder_arrays")
        if (cached is not None and cached[0] is self.path
                and cached[1] == len(self.path)):
            return cached[2], cached[3]
        n = len(self.path)
        edges = np.fromiter((el.edge_id for el in self.path),
                            dtype=np.int64, count=n)
        intervals = np.empty((n, 2), dtype=np.float64)
        for i, el in enumerate(self.path):
            intervals[i, 0] = el.enter_time
            intervals[i, 1] = el.exit_time
        self.__dict__["_encoder_arrays"] = (self.path, n, edges, intervals)
        return edges, intervals

    @property
    def depart_time(self) -> float:
        return self.path[0].enter_time

    @property
    def arrive_time(self) -> float:
        return self.path[-1].exit_time

    @property
    def travel_time(self) -> float:
        return self.arrive_time - self.depart_time

    def __len__(self) -> int:
        return len(self.path)


def _finite(name: str, value) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return number


@dataclass(frozen=True)
class Query:
    """A raw travel-time query: origin, destination, departure time.

    The one query form every serving entry point takes: the predictor,
    the service, the cluster and the CLI front-ends.  Construction
    validates it, so a malformed or non-finite value from a client is a
    ``ValueError`` naming the field, never a model failure further in.
    Iterable as ``(origin_xy, destination_xy, depart_time)``, so
    ``predictor.match_query(*query)`` unpacks it.
    """

    origin_xy: Tuple[float, float]
    destination_xy: Tuple[float, float]
    depart_time: float

    def __post_init__(self):
        for name in ("origin_xy", "destination_xy"):
            point = getattr(self, name)
            if not (isinstance(point, (tuple, list)) and len(point) == 2):
                raise ValueError(f"{name} must be an (x, y) pair")
            object.__setattr__(self, name, (_finite(name, point[0]),
                                            _finite(name, point[1])))
        t = _finite("depart_time", self.depart_time)
        if t < 0:
            raise ValueError(f"depart_time must be non-negative, got {t!r}")
        object.__setattr__(self, "depart_time", t)

    def __iter__(self):
        yield self.origin_xy
        yield self.destination_xy
        yield self.depart_time


@dataclass
class ODInput:
    """Definition 2: origin, destination, departure time, external features.

    The origin/destination are stored both as raw coordinates and in their
    road-matched form (edge id + position ratio), since DeepOD consumes the
    matched representation (Section 3).
    """

    origin_xy: Tuple[float, float]
    destination_xy: Tuple[float, float]
    depart_time: float
    origin_edge: int = -1
    destination_edge: int = -1
    ratio_start: float = 0.0
    ratio_end: float = 1.0
    weather: int = 0
    external: Optional[dict] = None

    @property
    def is_matched(self) -> bool:
        return self.origin_edge >= 0 and self.destination_edge >= 0


@dataclass
class TripRecord:
    """One historical taxi order: an OD input plus its affiliated trajectory.

    The trajectory exists for training data; test-time OD inputs carry
    ``trajectory = None`` (the gap the paper's auxiliary loss bridges).
    """

    od: ODInput
    travel_time: float
    trajectory: Optional[MatchedTrajectory] = None
    raw: Optional[RawTrajectory] = None

    def __post_init__(self):
        if self.travel_time <= 0:
            raise ValueError("travel time must be positive")
