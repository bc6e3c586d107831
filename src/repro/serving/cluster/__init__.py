"""Sharded multi-process serving: scale the single-process
:class:`~repro.serving.TravelTimeService` horizontally.

``router``
    Deterministic query → shard assignment (region cells or round
    robin).
``worker``
    The per-shard process: a full serving stack behind a pipe, with
    hot model swap off the promotion gate's ``current`` symlink.
``cluster``
    :class:`ServingCluster` — fork + copy-on-write worker pool,
    per-shard cross-connection micro-batching, health checks, worker
    restart, load shedding, TEMP-fallback degradation.
``loadgen``
    The load-test harness behind ``cli loadtest`` and
    ``benchmarks/test_serving_load.py``: saturation throughput, single
    process vs cluster, and open-loop latency at a controlled RPS.
"""

from .cluster import ClusterConfig, ServingCluster
from .loadgen import (
    measure_saturation, run_load_test, run_open_loop, synthetic_queries,
)
from .router import ROUTING_POLICIES, ShardRouter
from .worker import WorkerOptions

__all__ = [
    "ClusterConfig", "ServingCluster",
    "ROUTING_POLICIES", "ShardRouter", "WorkerOptions",
    "measure_saturation", "run_load_test", "run_open_loop",
    "synthetic_queries",
]
