"""Parallel sweep executor: a declarative grid fanned over processes.

The paper's experiment suite (Fig 9's w-sweep, Table 7's embedding
variants, per-city retrains for Tables 3-6) is embarrassingly parallel:
every point is an independent offline training run.  ``SweepSpec``
declares the grid — config overrides × seeds × cities — and
``run_sweep`` executes it with ``jobs`` worker processes.

Design invariants:

* **Deterministic** — a point's result depends only on its spec (the
  dataset regenerates deterministically from preset parameters), and
  results are returned in grid-expansion order, so ``--jobs 4`` output
  is identical to ``--jobs 1`` in every field except wall-clock timing.
* **Shared datasets** — every dataset a sweep needs is built once in
  the parent before the pool forks; workers inherit it copy-on-write
  instead of regenerating per point.
* **Failure containment** — a point that raises (or takes its worker
  down) is retried once, then recorded as ``failed`` with the error;
  the remaining points are unaffected.
"""

from __future__ import annotations

import itertools
import multiprocessing
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..atomic import write_json
from ..core.config import DeepODConfig
from ..datagen.dataset import TaxiDataset
from ..datagen.pipeline import DatasetSpec, build
from ..obs.metrics import global_registry
from .runner import RunSpec, execute_run

# Dataset cache shared with forked workers (copy-on-write).  Keyed by
# (city, trips, days); populated by ``prebuild_datasets`` in the parent
# so no worker ever rebuilds a dataset the sweep already has.
_DATASET_CACHE: Dict[Tuple[str, int, int], TaxiDataset] = {}


def _cached_dataset(city: str, trips: int, days: int) -> TaxiDataset:
    key = (city, trips, days)
    if key not in _DATASET_CACHE:
        _DATASET_CACHE[key] = build(DatasetSpec(
            city, num_trips=trips, num_days=days))
    return _DATASET_CACHE[key]


# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SweepPoint:
    """One grid point: a concrete RunSpec plus the overrides that made it."""

    index: int
    spec: RunSpec
    overrides: Dict[str, object]


@dataclass
class SweepSpec:
    """Declarative grid: ``grid`` maps DeepODConfig field names to the
    values to sweep; the cross product with ``seeds`` and ``cities``
    is the set of runs."""

    base_config: DeepODConfig
    grid: Dict[str, Sequence] = field(default_factory=dict)
    seeds: Sequence[int] = (0,)
    cities: Sequence[str] = ("mini-chengdu",)
    trips: int = 1000
    days: int = 14
    epochs: Optional[int] = None
    eval_every: int = 0
    checkpoint_every: int = 0
    coverage: float = 0.8
    save_artifacts: bool = False

    def expand(self) -> List[SweepPoint]:
        """The grid in canonical order: cities × grid values × seeds.

        Axis order is fixed (grid keys sorted) so the expansion — and
        therefore every point's index and run id — is independent of
        dict insertion order.
        """
        axes = sorted(self.grid)
        value_rows = list(itertools.product(
            *(self.grid[name] for name in axes))) or [()]
        points: List[SweepPoint] = []
        for city in self.cities:
            for row in value_rows:
                overrides = dict(zip(axes, row))
                for seed in self.seeds:
                    points.append(SweepPoint(
                        index=len(points),
                        spec=RunSpec(
                            city=city, config=self.base_config,
                            seed=seed, overrides=overrides,
                            trips=self.trips, days=self.days,
                            epochs=self.epochs,
                            eval_every=self.eval_every,
                            checkpoint_every=self.checkpoint_every,
                            coverage=self.coverage,
                            save_artifact=self.save_artifacts),
                        overrides=overrides))
        return points


@dataclass
class SweepResult:
    """All point results, in grid order, plus failure accounting."""

    results: List[Dict]

    @property
    def completed(self) -> List[Dict]:
        return [r for r in self.results if r["status"] == "completed"]

    @property
    def failed(self) -> List[Dict]:
        return [r for r in self.results if r["status"] == "failed"]

    def best(self, metric: str = "test_mae") -> Optional[Dict]:
        ranked = [r for r in self.completed
                  if r.get("metrics", {}).get(metric) is not None]
        if not ranked:
            return None
        return min(ranked, key=lambda r: r["metrics"][metric])

    def to_json(self, path: str) -> str:
        payload = {
            "num_points": len(self.results),
            "num_completed": len(self.completed),
            "num_failed": len(self.failed),
            "results": self.results,
        }
        write_json(path, payload)
        return path


# ---------------------------------------------------------------------------
# Generic fan-out engine (also used by the parallel-speedup benchmark).
def _call_safe(fn: Callable, item) -> Tuple[str, object]:
    try:
        return ("ok", fn(item))
    except Exception as exc:  # noqa: BLE001 — containment is the point
        return ("error", f"{exc!r}\n{traceback.format_exc()}")


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def run_grid(items: Sequence, fn: Callable, jobs: int = 1,
             retries: int = 1) -> List[Dict]:
    """Apply ``fn`` to every item with ``jobs`` workers.

    Returns one record per item, in input order:
    ``{"index", "status": "completed"|"failed", "value"|"error",
    "attempts"}``.  A failing item (exception, or a crash that takes the
    whole worker pool down) is retried ``retries`` times, then recorded
    as failed; other items always run to completion.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    total = len(items)
    records: List[Optional[Dict]] = [None] * total
    attempts = [0] * total
    pending = list(range(total))

    def settle(index: int, tag: str, payload) -> None:
        attempts[index] += 1
        if tag == "ok":
            records[index] = {"index": index, "status": "completed",
                              "value": payload,
                              "attempts": attempts[index]}
        elif attempts[index] > retries:
            records[index] = {"index": index, "status": "failed",
                              "error": str(payload),
                              "attempts": attempts[index]}
        else:
            pending.append(index)

    if jobs == 1:
        while pending:
            index = pending.pop(0)
            tag, payload = _call_safe(fn, items[index])
            settle(index, tag, payload)
        return [r for r in records if r is not None]

    ctx = _pool_context()
    while pending:
        batch, pending = pending, []
        futures: Dict = {}
        try:
            with ProcessPoolExecutor(max_workers=jobs,
                                     mp_context=ctx) as pool:
                futures = {pool.submit(_call_safe, fn, items[i]): i
                           for i in batch}
                not_done = set(futures)
                while not_done:
                    done, not_done = wait(not_done,
                                          return_when=FIRST_COMPLETED)
                    for future in done:
                        index = futures[future]
                        try:
                            tag, payload = future.result()
                        except Exception as exc:  # worker died hard
                            tag, payload = "error", repr(exc)
                        settle(index, tag, payload)
        except BrokenProcessPool as exc:
            # A worker crash poisons the whole pool: every future that
            # never reported gets a crash attempt, then a fresh pool.
            for future, index in futures.items():
                if records[index] is None and index not in pending:
                    settle(index, "error", f"worker pool broke: {exc!r}")
    return [r for r in records if r is not None]


# ---------------------------------------------------------------------------
def _execute_point(args: Tuple[SweepPoint, Optional[str]]) -> Dict:
    point, registry_root = args
    from .registry import RunRegistry
    registry = RunRegistry(registry_root) if registry_root else None
    dataset = _cached_dataset(point.spec.city, point.spec.trips,
                              point.spec.days)
    result = execute_run(point.spec, registry=registry, dataset=dataset)
    payload = result.to_dict()
    payload["index"] = point.index
    return payload


def prebuild_datasets(points: Sequence[SweepPoint]) -> int:
    """Build every dataset the sweep needs, once, in this process."""
    keys = {(p.spec.city, p.spec.trips, p.spec.days) for p in points}
    for city, trips, days in sorted(keys):
        _cached_dataset(city, trips, days)
    return len(keys)


def run_sweep(spec: SweepSpec, jobs: int = 1,
              registry_root: Optional[str] = None,
              retries: int = 1) -> SweepResult:
    """Execute a full sweep; results come back in grid order."""
    points = spec.expand()
    prebuild_datasets(points)
    raw = run_grid([(p, registry_root) for p in points],
                   _execute_point, jobs=jobs, retries=retries)
    # Sweep accounting lands in the shared observability registry in the
    # parent process — worker processes have their own (discarded) copy.
    metrics = global_registry()
    results: List[Dict] = []
    for record, point in zip(raw, points):
        if record["status"] == "completed":
            payload = record["value"]
            metrics.counter("sweep.points_completed").inc()
            wall = payload.get("metrics", {}).get("wall_seconds")
            if wall is not None:
                metrics.histogram("sweep.point_seconds").observe(
                    float(wall))
        else:
            payload = {"index": point.index, "status": "failed",
                       "city": point.spec.city, "seed": point.spec.seed,
                       "overrides": dict(point.overrides),
                       "metrics": {}, "error": record["error"]}
            metrics.counter("sweep.points_failed").inc()
        payload["attempts"] = record["attempts"]
        results.append(payload)
    return SweepResult(results=results)
