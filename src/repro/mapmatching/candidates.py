"""Candidate generation for HMM map matching.

For each GPS fix we enumerate road segments within an error radius (falling
back to the k nearest if the radius is empty), each candidate carrying the
projected position: (edge id, projection distance, position ratio).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..roadnet.spatial_index import SpatialIndex
from ..trajectory.model import GPSPoint


@dataclass(frozen=True)
class Candidate:
    """A possible road position for one GPS fix."""

    edge_id: int
    distance: float     # metres from the fix to the projected point
    ratio: float        # position ratio along the edge in [0, 1]


def candidates_for_point(index: SpatialIndex, point: GPSPoint,
                         radius: float = 80.0,
                         max_candidates: int = 8,
                         min_candidates: int = 2) -> List[Candidate]:
    """Candidate edges for a GPS fix.

    Radius search first; if it returns fewer than ``min_candidates`` the
    search falls back to k-nearest so a noisy fix never strands the HMM
    with an empty column.
    """
    return candidates_for_trajectory(index, [point], radius, max_candidates,
                                     min_candidates)[0]


def candidates_for_trajectory(index: SpatialIndex,
                              points: Sequence[GPSPoint],
                              radius: float = 80.0,
                              max_candidates: int = 8,
                              min_candidates: int = 2
                              ) -> List[List[Candidate]]:
    """Candidate columns for every fix of a trajectory
    (:func:`candidates_for_point` per fix, as one batched radius query
    plus one batched k-nearest query for the fixes it leaves short)."""
    if max_candidates < 1:
        raise ValueError("max_candidates must be >= 1")
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    columns = [hits[:max_candidates]
               for hits in index.edges_within_batch(xs, ys, radius)]
    short = [i for i, hits in enumerate(columns)
             if len(hits) < min_candidates]
    if short:
        nearest = index.k_nearest_edges_batch(
            [xs[i] for i in short], [ys[i] for i in short],
            k=max(min_candidates, 1))
        for i, hits in zip(short, nearest):
            columns[i] = hits
    return [[Candidate(eid, dist, ratio) for eid, dist, ratio in hits]
            for hits in columns]
