"""The shared LRU cache: batched lookups and thread safety."""

import sys
import threading

import pytest

from repro.obs.cache import LRUCache


class TestGetMany:
    def test_missed_keys_computed_once(self):
        cache = LRUCache(8)
        calls = []

        def compute(keys):
            calls.append(list(keys))
            return [k.upper() for k in keys]

        assert cache.get_many(["x", "y", "x", "z", "y"], compute) \
            == ["X", "Y", "X", "Z", "Y"]
        assert calls == [["x", "y", "z"]]
        assert (cache.hits, cache.misses) == (2, 3)

    def test_repeat_evicted_inside_the_batch_misses_again(self):
        cache = LRUCache(1)
        assert cache.get_many(["a", "b", "a"], lambda ks: [k * 2 for k in ks]) \
            == ["aa", "bb", "aa"]
        assert (cache.hits, cache.misses, cache.evictions) == (0, 3, 2)
        assert list(cache._data) == ["a"]
        assert cache.get("a") == "aa"

    def test_failed_compute_leaves_no_entries(self):
        cache = LRUCache(4)
        cache.put("a", 1)

        def boom(keys):
            raise RuntimeError("compute failed")

        with pytest.raises(RuntimeError):
            cache.get_many(["a", "b", "c"], boom)
        assert list(cache._data) == ["a"]
        assert cache.get_many(["b", "a"], lambda keys: [k * 2 for k in keys]) \
            == ["bb", 1]


def test_concurrent_lookups_keep_counts_and_values():
    cache = LRUCache(16)
    threads, rounds, errors = 8, 200, []
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)

    def worker(seed):
        try:
            for i in range(rounds):
                keys = [(seed * 7 + i * 3 + j) % 40 for j in range(5)]
                got = cache.get_many(keys, lambda ks: [k * k for k in ks])
                if got != [k * k for k in keys]:
                    errors.append((keys, got))
                if cache.get_or_compute(i % 40, lambda: (i % 40) ** 2) \
                        != (i % 40) ** 2:
                    errors.append(i)
        except Exception as exc:     # surfaced by the assertion below
            errors.append(exc)

    try:
        pool = [threading.Thread(target=worker, args=(s,))
                for s in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in pool)
    assert errors == []
    assert cache.hits + cache.misses == threads * rounds * 6
    assert len(cache) <= cache.capacity
