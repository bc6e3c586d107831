"""The one fail-closed checker of the ``BENCH_*.json`` micro-bench records.

Every micro-bench writes its record through :func:`write`, which checks
it first, and CI re-checks the emitted files without re-running the
benches::

    PYTHONPATH=src python -m benchmarks.benchfile BENCH_*.json

A record names its bench in ``bench``.  :data:`SPECS` holds, as data,
what each bench's record must contain.  Keys are dotted paths into the
record.  A missing or malformed value, a speedup under its floor, a
ratio over its ceiling or a parity flag that is not ``true`` raises
:class:`ValueError`.
"""

from __future__ import annotations

import json
import operator
import sys
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.atomic import write_json
from repro.datagen import PRESETS


@dataclass(frozen=True)
class Spec:
    """What one bench's record must hold.

    A bounded value is a path or a tuple of paths, summed; a bound is a
    path, a constant, or ``(path, factor)``.
    """

    sections: Tuple[str, ...] = ()      # JSON objects
    numbers: Tuple[str, ...] = ()       # numbers >= 0
    counts: Tuple[str, ...] = ()        # integers >= 0
    allowed: Tuple[Tuple[str, tuple], ...] = ()  # (path, allowed values)
    floors: Tuple[tuple, ...] = ()      # (value, floor): value >= floor
    ceilings: Tuple[tuple, ...] = ()    # (value, ceiling): value <= ceiling


_FIT_PHASES = ("forward_s", "backward_s", "optimizer_s")
_QPS = ("single_qps", "cluster_qps", "speedup")
_EMBED_STAGES = ("walks_s", "sgns_s", "total_s")

SPECS: Dict[str, Spec] = {
    "datagen_pipeline": Spec(
        allowed=(("schema", ("repro.bench.datagen/v1",)),
                 ("workload.city", tuple(PRESETS)),
                 ("parallel.mode", ("stall", "real")),
                 ("viterbi.paths_identical", (True,)),
                 ("fingerprint_equal", (True,))),
        sections=("workload", "throughput", "memory", "viterbi",
                  "parallel"),
        numbers=("workload.trips", "workload.days", "workload.chunk_size",
                 "throughput.trips_per_s", "throughput.build_s",
                 "throughput.floor", "memory.ram_peak_delta_kb",
                 "memory.disk_peak_delta_kb", "memory.ratio",
                 "memory.ceiling", "viterbi.reference_s",
                 "viterbi.vectorized_s", "viterbi.speedup",
                 "viterbi.floor", "viterbi.trips", "parallel.jobs",
                 "parallel.serial_s", "parallel.parallel_s",
                 "parallel.speedup", "parallel.floor"),
        floors=(("throughput.trips_per_s", "throughput.floor"),
                ("viterbi.speedup", "viterbi.floor"),
                ("parallel.speedup", "parallel.floor")),
        ceilings=(("memory.ratio", "memory.ceiling"),)),
    "embedding_engine_speedup": Spec(
        sections=("graph", "workload", "reference", "vectorized"),
        numbers=("scale", "graph.nodes", "graph.edges", "speedup",
                 "floor", "spread.min", "spread.max")
                + tuple(f"{engine}.{stage}"
                        for engine in ("reference", "vectorized")
                        for stage in _EMBED_STAGES),
        counts=("pairs",),
        floors=(("speedup", "floor"), ("pairs", 5))),
    "fit_engine_speedup": Spec(
        sections=("workload", "reference", "fast", "parity"),
        allowed=(("workload.sequence_encoder", ("lstm", "gru", "mean")),),
        numbers=("scale", "speedup", "floor", "parity.fast_mae",
                 "parity.reference_mae", "workload.trips", "workload.steps",
                 "workload.batch_size")
                + tuple(f"{engine}.{key}" for engine in ("reference", "fast")
                        for key in ("fit_s",) + _FIT_PHASES),
        floors=(("speedup", "floor"),),
        # The phases are nested spans of the fit; their sum can exceed
        # it only by timer overhead, never by half.
        ceilings=tuple((tuple(f"{engine}.{p}" for p in _FIT_PHASES),
                        (f"{engine}.fit_s", 1.5))
                       for engine in ("reference", "fast"))),
    "lint_cache_speedup": Spec(
        allowed=(("schema", ("repro.bench.lint/v1",)),
                 ("cold.cache_hits", (0,))),
        sections=("cold", "warm"),
        numbers=("cold_s", "warm_s", "speedup", "floor"),
        counts=("files", "findings", "cold.cache_hits", "cold.cache_misses",
                "warm.cache_hits", "warm.cache_misses"),
        # A warm run hits the cache for every file.
        floors=(("speedup", "floor"), ("files", 1),
                ("warm.cache_hits", "files")),
        ceilings=(("warm.cache_hits", "files"),)),
    "serving_load": Spec(
        allowed=(("schema", ("repro.bench.serving/v1",)),),
        sections=("config", "overlap", "model", "open_loop",
                  "open_loop.latency_ms"),
        numbers=("created_unix", "overlap.workers", "overlap.floor",
                 "overlap.stall_ms", "model.workers", "open_loop.rps_target",
                 "open_loop.rps_achieved", "open_loop.queries",
                 "open_loop.latency_ms.p50", "open_loop.latency_ms.p95",
                 "open_loop.latency_ms.p99")
                + tuple(f"{section}.{key}" for section in ("overlap", "model")
                        for key in _QPS),
        counts=("cpus", "open_loop.failed"),
        floors=(("overlap.speedup", "overlap.floor"),)),
}


_MISSING = object()


def _get(payload: Dict, path: str):
    node = payload
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return _MISSING
        node = node[key]
    return node


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _term(payload: Dict, term) -> Tuple[float, str]:
    """The value and the name of a bounded value or a bound."""
    if isinstance(term, tuple) and _is_number(term[-1]):
        value, name = _term(payload, term[0])
        return value * term[1], f"{term[1]:g} x {name}"
    if isinstance(term, tuple):
        parts = [_term(payload, part) for part in term]
        return (sum(value for value, _ in parts),
                " + ".join(name for _, name in parts))
    if _is_number(term):
        return term, f"{term:g}"
    value = _get(payload, term)
    if not _is_number(value):
        raise ValueError(f"{term} must be a number (got {value!r})")
    return value, term


def check(payload) -> Dict:
    """Check one bench record against its spec; returns it unchanged."""
    if not isinstance(payload, dict):
        raise ValueError("bench record must be a JSON object")
    bench = payload.get("bench")
    spec = SPECS.get(bench) if isinstance(bench, str) else None
    if spec is None:
        raise ValueError(f"bench must be one of {sorted(SPECS)} "
                         f"(got {bench!r})")
    for path in spec.sections:
        if not isinstance(_get(payload, path), dict):
            raise ValueError(f"{path} must be an object")
    for path in spec.numbers + spec.counts:
        value = _get(payload, path)
        if value is _MISSING:
            raise ValueError(f"{path} missing")
        kind = "integer" if path in spec.counts else "number"
        if not _is_number(value) or value < 0 or (
                kind == "integer" and not isinstance(value, int)):
            raise ValueError(f"{path} must be a non-negative {kind} "
                             f"(got {value!r})")
    for path, values in spec.allowed:
        got = _get(payload, path)
        # Typed: a flag that must be true is not satisfied by 1.
        if not any(got == v and type(got) is type(v) for v in values):
            raise ValueError(f"{path} must be "
                             + (f"{values[0]!r}" if len(values) == 1
                                else f"one of {sorted(values)}")
                             + f" (got {None if got is _MISSING else got!r})")
    for pairs, fails, word in ((spec.floors, operator.lt, "below"),
                               (spec.ceilings, operator.gt, "above")):
        for value, bound in pairs:
            (got, name), (limit, limit_name) = (_term(payload, value),
                                                _term(payload, bound))
            if fails(got, limit):
                raise ValueError(f"{name} = {got:g} is {word} "
                                 f"{limit_name} = {limit:g}")
    return payload


def check_file(path: str) -> Dict:
    """Load and check one ``BENCH_*.json`` file."""
    with open(path) as handle:
        return check(json.load(handle))


def write(path, payload: Dict) -> Dict:
    """Check a bench record, then write it atomically; returns it."""
    write_json(str(path), check(payload))
    return payload


def main(argv: Sequence[str]) -> int:
    """Check every named file; exit 1 if any fails."""
    if not argv:
        print("usage: python -m benchmarks.benchfile FILE...",
              file=sys.stderr)
        return 2
    failed = 0
    for path in argv:
        try:
            bench = check_file(path)["bench"]
        except (OSError, ValueError) as exc:
            failed += 1
            print(f"FAIL {path}: {exc}", file=sys.stderr)
        else:
            print(f"ok   {path} ({bench})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
