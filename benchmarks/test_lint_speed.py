"""Incremental lint cache: warm re-lints must be >= 5x faster than cold.

A cold ``lint_project`` over ``src/repro`` parses every file and runs
the full rule set; a warm run only re-hashes file contents, rebuilds
the project graph from cached :class:`~repro.analysis.graph.ModuleRecord`
entries, and re-runs the (parse-free) A-series rules.  The wall-time
ratio is the whole point of the cache, so it is asserted, not just
reported.

Results land in ``BENCH_lint.json`` at the repo root, checked by
``benchmarks.benchfile``.
"""

import time
from pathlib import Path

from repro.analysis import lint_project

from .benchfile import write
from .conftest import print_header

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_REPRO = REPO_ROOT / "src" / "repro"
RESULTS_PATH = REPO_ROOT / "BENCH_lint.json"

FLOOR = 5.0


def _timed_lint(cache_path: str):
    t0 = time.perf_counter()
    result = lint_project([SRC_REPRO], cache_path=cache_path)
    return time.perf_counter() - t0, result


def test_lint_cache_speedup(tmp_path):
    cache_path = str(tmp_path / ".reprolint-cache.json")

    cold_s, cold = _timed_lint(cache_path)
    assert cold.stats["cache_hits"] == 0
    assert cold.stats["cache_misses"] == cold.stats["files"] > 0

    # Best of three warm runs: the warm path is pure hashing + cached
    # record replay, short enough that scheduler jitter matters.
    warm_s, warm = _timed_lint(cache_path)
    for _ in range(2):
        again_s, again = _timed_lint(cache_path)
        if again_s < warm_s:
            warm_s, warm = again_s, again
    assert warm.stats["cache_hits"] == warm.stats["files"]
    assert warm.stats["cache_misses"] == 0

    # The cache is an accelerator, not a source of truth: identical
    # findings either way (and the tree itself lints clean).
    assert ([f.to_dict() for f in warm.findings]
            == [f.to_dict() for f in cold.findings])

    speedup = cold_s / max(warm_s, 1e-9)

    print_header("reprolint — incremental cache, cold vs warm")
    print(f"{cold.stats['files']} files under src/repro")
    print(f"cold: {cold_s * 1e3:8.1f} ms  (parse + all rules)")
    print(f"warm: {warm_s * 1e3:8.1f} ms  (hash + cached records)")
    print(f"speedup: {speedup:.1f}x (floor {FLOOR:.0f}x)")

    write(RESULTS_PATH, {
        "bench": "lint_cache_speedup",
        "schema": "repro.bench.lint/v1",
        "files": cold.stats["files"],
        "findings": len(cold.findings),
        "cold_s": cold_s,
        "warm_s": warm_s,
        "cold": {"cache_hits": cold.stats["cache_hits"],
                 "cache_misses": cold.stats["cache_misses"]},
        "warm": {"cache_hits": warm.stats["cache_hits"],
                 "cache_misses": warm.stats["cache_misses"]},
        "speedup": speedup,
        "floor": FLOOR,
    })

    assert speedup >= FLOOR, (
        f"warm lint only {speedup:.1f}x faster than cold "
        f"({cold_s:.3f}s vs {warm_s:.3f}s); floor is {FLOOR:.0f}x")
