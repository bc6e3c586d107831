"""Production-style serving stack for trained DeepOD models.

The paper's deployment story (Algorithm 1, Table 5) is that online
estimation runs only M_O and M_E, cheaply, per query.  This package is
the operational half of that story:

``artifact``
    Self-contained model bundles (weights + config + calibration + the
    serving-state bundle of speed matrices and TEMP's trip table) that
    round-trip to a ready predictor with no trip in memory.
``state``
    :class:`ServingDataset`, the loaded serving state a predictor and a
    service read in place of the training dataset.
``batcher``
    Micro-batching of single queries into vectorised model calls.
``cache``
    LRU caches for map matches and speed-matrix slices.
``fallback``
    TEMP-style historical-average degradation when the model path fails.
``route_baseline``
    Tier 1 of the degradation ladder: shortest path × current cell
    speeds (taxisim's ``predict_trip_duration`` shape), live-traffic
    aware once ``repro.streaming`` feeds slices in.
``service`` / ``server``
    The wired :class:`TravelTimeService` plus stdlib HTTP / JSON-lines
    front-ends (``python -m repro.cli serve``).
``errors``
    Capacity-error types (``SaturatedError`` → HTTP 503) shared by the
    service, the cluster and the front-ends.
``cluster``
    Sharded multi-process serving (:class:`ServingCluster`): forked
    copy-on-write workers, cross-connection micro-batching, hot model
    swap off the promotion gate's ``current`` symlink, and the
    load-test harness behind ``cli loadtest``.
"""

from .artifact import (
    ArtifactError, load_artifact, read_manifest, save_artifact,
    upgrade_artifact, validate_artifact,
)
from .batcher import MicroBatcher
from .cache import ODMatchCache, SpeedSliceCache
from ..trajectory.model import Query
from .errors import SaturatedError, ServiceUnavailable, WorkerUnavailableError
from .fallback import HistoricalAverageFallback
from .route_baseline import RouteTimeBaseline
from .server import ServingHTTPServer, parse_query, run_jsonl_loop, serve_http
from .service import ServiceConfig, ServingResponse, TravelTimeService
from .state import ServingDataset
from .cluster import ClusterConfig, ServingCluster

__all__ = [
    "ArtifactError", "load_artifact", "read_manifest", "save_artifact",
    "upgrade_artifact", "validate_artifact", "ServingDataset",
    "MicroBatcher",
    "ODMatchCache", "SpeedSliceCache",
    "HistoricalAverageFallback", "RouteTimeBaseline",
    "SaturatedError", "ServiceUnavailable", "WorkerUnavailableError",
    "Query",
    "ServingHTTPServer", "parse_query", "run_jsonl_loop", "serve_http",
    "ServiceConfig", "ServingResponse", "TravelTimeService",
    "ClusterConfig", "ServingCluster",
]
