"""ShardRouter: deterministic, process-stable query -> shard mapping."""

import pytest

from repro.serving.cluster import ROUTING_POLICIES, ShardRouter
from repro.trajectory.model import Query


def q(ox, oy, dx=0.0, dy=0.0, t=0.0):
    return Query(origin_xy=(ox, oy), destination_xy=(dx, dy),
                 depart_time=t)


class TestRegionRouting:
    def test_same_origin_same_shard(self):
        router = ShardRouter(4)
        assert router.shard_of(q(120.0, 340.0, 9.0, 9.0, 100.0)) == \
            router.shard_of(q(120.0, 340.0, 9999.0, 1.0, 55555.0))

    def test_same_cell_same_shard(self):
        # Cache affinity: every pickup inside one 500m cell lands on
        # one worker, whatever the exact coordinates.
        router = ShardRouter(4)
        shards = {router.shard_of(q(x, y))
                  for x in (1000.0, 1200.0, 1499.0)
                  for y in (2000.0, 2300.0, 2499.0)}
        assert len(shards) == 1

    def test_stable_across_instances(self):
        # CRC-based, not builtin hash(): the assignment must not move
        # between router instances (or interpreter runs — PYTHONHASHSEED
        # must not matter for a restarted cluster's cache affinity).
        queries = [q(137.0 * i, 89.0 * i) for i in range(64)]
        a = [ShardRouter(8).shard_of(query) for query in queries]
        b = [ShardRouter(8).shard_of(query) for query in queries]
        assert a == b

    def test_spreads_over_shards(self):
        router = ShardRouter(4)
        shards = {router.shard_of(q(937.0 * i, 613.0 * (i % 17)))
                  for i in range(200)}
        assert shards == {0, 1, 2, 3}

    def test_single_shard(self):
        router = ShardRouter(1)
        assert all(router.shard_of(q(i * 1.0, i * 2.0)) == 0
                   for i in range(10))


class TestRoundRobin:
    def test_cycles(self):
        router = ShardRouter(3, policy="round_robin")
        query = q(1.0, 1.0)
        assert [router.shard_of(query) for _ in range(7)] == \
            [0, 1, 2, 0, 1, 2, 0]


class TestValidation:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            ShardRouter(2, policy="sticky")

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            ShardRouter(0)

    def test_policy_catalogue(self):
        assert set(ROUTING_POLICIES) == {"region", "round_robin"}
