"""Shard routing: deterministic query → worker assignment.

The cluster partitions a city's query stream across worker processes.
Two policies:

``region`` (default)
    The origin coordinate is snapped to a fixed 500 m square cell; the
    cell hashes to a shard.  Queries departing from the same
    neighbourhood always land on the same worker, so that worker's
    OD-match LRU sees every repeat of a popular pickup point —
    the cache-affinity argument for spatial partitioning.  The hash is
    CRC32 over the packed cell coordinates: stable across processes and
    Python runs (``hash()`` is salted per process and would scatter the
    same query differently on every restart).

``round_robin``
    Uniform load spreading with no affinity — the right policy when the
    query stream is spatially skewed enough to hot-spot one region
    shard.  Assignment depends on arrival order, so it is *not*
    deterministic across runs; per-query responses still are (any
    worker gives the same answer to the same query).
"""

from __future__ import annotations

import itertools
import struct
import threading
import zlib

from ...trajectory.model import Query

ROUTING_POLICIES = ("region", "round_robin")
CELL_METRES = 500.0


class ShardRouter:
    """Maps queries to shard ids in ``range(num_shards)``."""

    def __init__(self, num_shards: int, policy: str = "region"):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if policy not in ROUTING_POLICIES:
            raise ValueError(f"policy must be one of {ROUTING_POLICIES}")
        self.num_shards = num_shards
        self.policy = policy
        self._counter = itertools.count()
        self._lock = threading.Lock()

    def shard_of(self, query: Query) -> int:
        """The shard responsible for ``query``."""
        if self.num_shards == 1:
            return 0
        if self.policy == "round_robin":
            with self._lock:
                return next(self._counter) % self.num_shards
        ox, oy = query.origin_xy
        cell = (int(ox // CELL_METRES), int(oy // CELL_METRES))
        digest = zlib.crc32(struct.pack("<qq", *cell))
        return digest % self.num_shards
