"""LiveSpeedFeed: push freshly estimated speed slices into serving.

The estimator produces SpeedMatrixStore-shaped period slices; serving
consumes them through one of two doors, duck-typed per target:

* a :class:`~repro.serving.service.TravelTimeService` exposes
  ``apply_live_speeds`` (its one live speed store, plus invalidation
  of the touched periods' D_traf rows);
* a :class:`~repro.serving.cluster.ServingCluster` exposes
  ``publish_speeds`` (fan-out to every worker over the control pipe).

A feed can carry several targets at once — e.g. a local service used
for scoring plus the cluster actually serving traffic — and keeps
publish accounting in the shared metrics registry.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..obs.metrics import MetricsRegistry, global_registry


class LiveSpeedFeed:
    """Fan freshly completed speed slices out to serving targets."""

    def __init__(self, targets: Optional[List[object]] = None,
                 metrics: Optional[MetricsRegistry] = None):
        self.targets: List[object] = list(targets or [])
        self.metrics = metrics if metrics is not None else global_registry()
        self.published_slices = 0

    def add_target(self, target: object) -> None:
        if not (hasattr(target, "apply_live_speeds")
                or hasattr(target, "publish_speeds")):
            raise TypeError(
                "feed target must expose apply_live_speeds (service) "
                "or publish_speeds (cluster)")
        self.targets.append(target)

    def publish(self, slices: Dict[int, np.ndarray]) -> int:
        """Push ``{period: matrix}`` to every target; returns the number
        of slices delivered (slices × targets)."""
        if not slices:
            return 0
        delivered = 0
        for target in self.targets:
            if hasattr(target, "publish_speeds"):
                delivered += int(target.publish_speeds(slices) or 0)
            else:
                delivered += int(target.apply_live_speeds(slices) or 0)
        self.published_slices += len(slices)
        self.metrics.counter("stream.feed.publishes").inc(len(slices))
        return delivered
