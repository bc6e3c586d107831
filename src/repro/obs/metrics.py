"""Shared metrics: counters, latency histograms, one JSON snapshot.

Every layer — the serving stack, the trainer, the sweep executor —
feeds one metrics vocabulary.  The
paper's Table 5 measures exactly what these types record: per-query
estimation cost online (latency histograms) and per-epoch training
cost offline (step/epoch histograms).

``global_registry()`` returns the process-wide default registry that
the trainer and the sweep executor write into; the serving service
keeps a private registry per instance (its snapshot is a public,
scrapeable schema) unless handed a shared one.

Stdlib + numpy only; all types are thread-safe (the HTTP front-end is
a threading server).
"""

from __future__ import annotations

import json
import threading
from collections import deque
from functools import reduce
from itertools import repeat
from operator import add
from typing import Deque, Dict, Optional

import numpy as np


class Counter:
    """A monotonically increasing counter."""

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Histogram:
    """Sliding-window histogram with exact percentiles.

    Keeps the most recent ``window`` observations (default 16384) — enough
    for stable p99 estimates while bounding memory for long-lived servers.
    """

    def __init__(self, name: str, window: int = 16384):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.name = name
        self._samples: Deque[float] = deque(maxlen=window)
        self._count = 0
        self._total = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``value`` ``count`` times: the window, count, total
        and summary equal those of ``count`` single observations."""
        if count < 0:
            raise ValueError("count must be >= 0")
        value = float(value)
        with self._lock:
            self._samples.extend(repeat(value, min(count,
                                                   self._samples.maxlen)))
            self._count += count
            # One addition per observation, so the total rounds alike.
            self._total = reduce(add, repeat(value, count), self._total)

    @property
    def count(self) -> int:
        return self._count

    def percentile(self, q: float) -> float:
        """The q-th percentile (q in [0, 100]) of the current window."""
        with self._lock:
            if not self._samples:
                return 0.0
            return float(np.percentile(np.fromiter(self._samples, float),
                                       q))

    def summary(self) -> Dict[str, float]:
        with self._lock:
            if not self._samples:
                return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
                        "p99": 0.0, "max": 0.0}
            arr = np.fromiter(self._samples, float)
            p50, p95, p99 = np.percentile(arr, [50, 95, 99])
            return {
                "count": self._count,
                "mean": float(self._total / max(self._count, 1)),
                "p50": float(p50), "p95": float(p95), "p99": float(p99),
                "max": float(arr.max()),
            }


class MetricsRegistry:
    """Named counters + histograms with a JSON snapshot.

    ``snapshot()`` also merges in any gauge callbacks registered with
    :meth:`register_gauge` (the service uses these to surface live cache
    hit rates without the registry knowing about caches).
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._gauges: Dict[str, "object"] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter(name)
            return self._counters[name]

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram(name)
            return self._histograms[name]

    def register_gauge(self, name: str, fn) -> None:
        """``fn`` is a zero-arg callable returning a JSON-able value."""
        with self._lock:
            self._gauges[name] = fn

    def snapshot(self) -> Dict[str, object]:
        snap: Dict[str, object] = {
            "counters": {n: c.value for n, c in self._counters.items()},
            "histograms": {n: h.summary()
                           for n, h in self._histograms.items()},
        }
        gauges = {}
        for name, fn in self._gauges.items():
            try:
                gauges[name] = fn()
            except Exception as exc:   # a broken gauge must not kill /metrics
                gauges[name] = f"error: {exc}"
        if gauges:
            snap["gauges"] = gauges
        return snap

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


# ---------------------------------------------------------------------------
_GLOBAL_REGISTRY = MetricsRegistry()
# Created at import, before any thread or fork exists, and only ever
# held for the microseconds of a registry swap — never across a fork.
# repro: allow[F001] import-time lock, never held across a fork point
_GLOBAL_LOCK = threading.Lock()


def global_registry() -> MetricsRegistry:
    """The process-wide default registry (trainer, sweep executor, CLI)."""
    return _GLOBAL_REGISTRY


def reset_global_registry() -> MetricsRegistry:
    """Swap in a fresh global registry (test isolation); returns it."""
    global _GLOBAL_REGISTRY
    with _GLOBAL_LOCK:
        _GLOBAL_REGISTRY = MetricsRegistry()
        return _GLOBAL_REGISTRY
