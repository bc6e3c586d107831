"""BENCH_lint.json against ``benchmarks.benchfile``: the checker
accepts the bench's shape and fails closed on anything else."""

import json

import pytest

from benchmarks.benchfile import check, check_file


def good_payload():
    return {
        "bench": "lint_cache_speedup",
        "schema": "repro.bench.lint/v1",
        "files": 120,
        "findings": 0,
        "cold_s": 2.1,
        "warm_s": 0.03,
        "cold": {"cache_hits": 0, "cache_misses": 120},
        "warm": {"cache_hits": 120, "cache_misses": 0},
        "speedup": 70.0,
        "floor": 5.0,
    }


def test_good_payload_validates():
    payload = good_payload()
    assert check(payload) is payload


def test_file_entry_point(tmp_path):
    path = tmp_path / "BENCH_lint.json"
    path.write_text(json.dumps(good_payload()))
    assert check_file(str(path))["files"] == 120


@pytest.mark.parametrize("label,mutate", [
    ("wrong bench name", lambda p: p.update(bench="other")),
    ("wrong schema", lambda p: p.update(schema="repro.bench.lint/v0")),
    ("files zero", lambda p: p.update(files=0)),
    ("negative time", lambda p: p.update(warm_s=-1)),
    ("cold had hits", lambda p: p["cold"].update(cache_hits=1)),
    ("warm not fully cached", lambda p: p["warm"].update(cache_hits=2)),
    ("speedup below floor", lambda p: p.update(speedup=4.9)),
    ("findings missing", lambda p: p.pop("findings")),
], ids=lambda v: v if isinstance(v, str) else "")
def test_rejects(label, mutate):
    payload = good_payload()
    mutate(payload)
    with pytest.raises(ValueError):
        check(payload)
