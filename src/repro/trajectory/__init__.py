"""Trajectory substrate: the data model of Definitions 1-2 and the linear
interpolation of per-edge time intervals."""

from .model import (
    GPSPoint, MatchedTrajectory, ODBatch, ODInput, PathElement, Query,
    RawTrajectory, TripRecord,
)
from .interpolation import (
    build_matched_trajectory, intervals_from_endpoint_times,
    intervals_from_gps_times,
)

__all__ = [
    "GPSPoint", "MatchedTrajectory", "ODBatch", "ODInput", "PathElement",
    "Query",
    "RawTrajectory", "TripRecord",
    "build_matched_trajectory", "intervals_from_endpoint_times",
    "intervals_from_gps_times",
]
