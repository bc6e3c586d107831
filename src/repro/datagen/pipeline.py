"""Typed, out-of-core dataset build pipeline.

One typed entry point builds every dataset:

    >>> from repro.datagen import DatasetSpec, build
    >>> dataset = build(DatasetSpec("mini-chengdu", num_trips=200))

A :class:`DatasetSpec` names the city preset, the content overrides
(trips / days) and the execution knobs (chunk size, matcher jobs,
storage backend).  The execution knobs never change the resulting
dataset: chunked builds concatenate to exactly the one-shot trip list
before the departure-time sort, speed matrices accumulate through the
same :class:`~repro.datagen.speed_matrix.SpeedMatrixAccumulator` in the
same sorted order, and map matching is per-trip deterministic — so a
``chunk_size=512, matcher_jobs=4, storage="disk"`` build is
byte-identical (equal ``dataset_fingerprint``) to a one-shot serial RAM
build.  That invariant is what lets the ``mega-*`` presets stream
10^5-10^6 trips through a fixed-size RAM footprint.

``storage="disk"`` writes every chunk to an on-disk directory layout
(see :mod:`repro.datagen.storage`) and returns a memory-mapped
:class:`~repro.datagen.dataset.TaxiDataset` via ``TaxiDataset.open``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np

from ..atomic import replace_dir
from ..obs.tracing import NULL_TRACER, Tracer
from ..temporal.timeslot import SECONDS_PER_DAY
from ..trajectory.model import TripRecord
from .cities import CityPreset, PRESETS, preset_network, preset_slot_config
from .dataset import (
    BuildInfo, TaxiDataset, chronological_split, dataset_fingerprint,
    split_indices,
)
from .speed_matrix import SpeedGridConfig, SpeedMatrixAccumulator
from .traffic import TrafficConfig, TrafficModel
from .trips import TripConfig, TripGenerator
from .weather import WeatherProcess

DEFAULT_CHUNK_SIZE = 2048


@dataclass(frozen=True)
class DatasetSpec:
    """Everything needed to build (or rebuild) one dataset.

    ``num_trips`` / ``num_days`` default to the preset's values.
    ``chunk_size=0`` means one-shot for RAM builds and
    ``DEFAULT_CHUNK_SIZE`` for disk builds.  ``rematch`` replaces each
    trip's synthetic trajectory with the HMM map-matched one (trips the
    matcher rejects keep their synthetic trajectory and are counted in
    the ``datagen.match`` span attributes).
    """

    city: str
    num_trips: Optional[int] = None
    num_days: Optional[int] = None
    chunk_size: int = 0
    matcher_jobs: int = 1
    storage: str = "ram"
    out_dir: Optional[str] = None
    rematch: bool = False

    def __post_init__(self):
        if self.num_trips is not None and self.num_trips < 1:
            raise ValueError("num_trips must be >= 1")
        if self.num_days is not None and self.num_days < 1:
            raise ValueError("num_days must be >= 1")
        if self.chunk_size < 0:
            raise ValueError("chunk_size must be >= 0 (0 = one shot)")
        if self.matcher_jobs < 1:
            raise ValueError("matcher_jobs must be >= 1")
        if self.storage not in ("ram", "disk"):
            raise ValueError("storage must be 'ram' or 'disk'")
        if self.storage == "disk" and not self.out_dir:
            raise ValueError("storage='disk' requires out_dir")
        if self.storage == "ram" and self.out_dir:
            raise ValueError("out_dir only applies to storage='disk'")

    @classmethod
    def from_build_info(cls, info: BuildInfo,
                        out_dir: Optional[str] = None) -> "DatasetSpec":
        """Spec that rebuilds the dataset an artifact was trained on.

        Storage/chunking knobs are dropped (they do not affect content);
        ``rematch`` is kept because it does.
        """
        return cls(city=info.city, num_trips=info.num_trips,
                   num_days=info.num_days, rematch=info.rematch,
                   storage="disk" if out_dir else "ram", out_dir=out_dir)


def build(spec: DatasetSpec, tracer: Optional[Tracer] = None) -> TaxiDataset:
    """Build the dataset described by ``spec``."""
    if spec.city not in PRESETS:
        raise KeyError(
            f"unknown city {spec.city!r}; choose from {sorted(PRESETS)}")
    return _build(PRESETS[spec.city], spec, tracer or NULL_TRACER)


def build_from_preset(preset: CityPreset, num_trips: Optional[int] = None,
                      num_days: Optional[int] = None,
                      tracer: Optional[Tracer] = None) -> TaxiDataset:
    """One-shot RAM build of an ad-hoc preset object (one that is not
    in the registry); registry cities should go through :func:`build`.
    """
    spec = DatasetSpec(city=preset.name, num_trips=num_trips,
                       num_days=num_days)
    return _build(preset, spec, tracer or NULL_TRACER)


# ----------------------------------------------------------------------
def _build(preset: CityPreset, spec: DatasetSpec,
           tracer: Tracer) -> TaxiDataset:
    trips_n = spec.num_trips if spec.num_trips is not None \
        else preset.num_trips
    days = spec.num_days if spec.num_days is not None else preset.num_days
    chunk = spec.chunk_size or (
        trips_n if spec.storage == "ram" else DEFAULT_CHUNK_SIZE)
    info = BuildInfo(city=preset.name, num_trips=trips_n, num_days=days,
                     chunk_size=spec.chunk_size,
                     matcher_jobs=spec.matcher_jobs, storage=spec.storage,
                     rematch=spec.rematch)
    with tracer.span("datagen.build", city=preset.name, num_trips=trips_n,
                     num_days=days, storage=spec.storage, chunk_size=chunk,
                     matcher_jobs=spec.matcher_jobs):
        with tracer.span("datagen.network"):
            net = preset_network(preset)
        horizon = days * SECONDS_PER_DAY
        weather = WeatherProcess(horizon, seed=preset.seed + 1)
        traffic = TrafficModel(net, TrafficConfig(), seed=preset.seed + 2)
        generator = TripGenerator(
            net, traffic, weather,
            TripConfig(gps_period=preset.gps_period,
                       min_trip_edges=preset.min_trip_edges),
            seed=preset.seed + 3)
        matcher = None
        if spec.rematch:
            from ..mapmatching.hmm import HMMMapMatcher
            matcher = HMMMapMatcher(net)
        chunks = generator.generate_chunks(trips_n, start_day=0,
                                           num_days=days, chunk_size=chunk)
        grid = SpeedGridConfig(cell_metres=max(preset.block_size, 200.0))
        if spec.storage == "disk":
            return _build_disk(preset, spec, tracer, net, weather, traffic,
                               matcher, chunks, trips_n, horizon, grid,
                               info)
        return _build_ram(preset, spec, tracer, net, weather, traffic,
                          matcher, chunks, trips_n, horizon, grid, info)


def _rematch_chunk(matcher, trips: List[TripRecord], jobs: int,
                   tracer: Tracer) -> List[TripRecord]:
    """Replace synthetic trajectories with map-matched ones.

    Trips the matcher rejects keep their synthetic trajectory — a
    10^5-trip build must not abort on one bad trajectory.
    """
    from ..mapmatching.batch import match_many
    with tracer.span("datagen.match", trips=len(trips), jobs=jobs):
        results = match_many(matcher, [t.raw for t in trips], jobs=jobs)
        tracer.annotate(matched=sum(1 for r in results
                                    if r.trajectory is not None))
        out: List[TripRecord] = []
        for trip, res in zip(trips, results):
            if res.trajectory is not None:
                out.append(TripRecord(od=trip.od,
                                      travel_time=trip.travel_time,
                                      trajectory=res.trajectory,
                                      raw=trip.raw))
            else:
                out.append(trip)
    return out


def _build_ram(preset, spec, tracer, net, weather, traffic, matcher,
               chunks, trips_n, horizon, grid, info) -> TaxiDataset:
    trips: List[TripRecord] = []
    with tracer.span("datagen.trips", requested=trips_n):
        for chunk_trips in chunks:
            if matcher is not None:
                chunk_trips = _rematch_chunk(matcher, chunk_trips,
                                             spec.matcher_jobs, tracer)
            trips.extend(chunk_trips)
    trips.sort(key=lambda tr: tr.od.depart_time)
    with tracer.span("datagen.split"):
        split = chronological_split(trips)
    # Speed matrices are an *online observable* (the current traffic
    # feed from all vehicles on the road), so they are computed over
    # the whole horizon — at prediction time the paper also reads the
    # most recent matrix.  Prediction labels are never exposed: only
    # aggregate grid speeds enter the feature.
    with tracer.span("datagen.speed_matrix"):
        accumulator = SpeedMatrixAccumulator(net, horizon, grid)
        accumulator.add_trips(trips)
        speed_store = accumulator.finalize()
    return TaxiDataset(
        name=preset.name, net=net, trips=trips, split=split,
        slot_config=preset_slot_config(preset), weather=weather,
        traffic=traffic,
        speed_store=speed_store, horizon_seconds=horizon,
        build_params=info)


def _build_disk(preset, spec, tracer, net, weather, traffic, matcher,
                chunks, trips_n, horizon, grid, info) -> TaxiDataset:
    from . import storage

    out_dir = spec.out_dir
    meta = os.path.join(out_dir, storage.META_FILE)
    if os.path.isdir(out_dir) and os.listdir(out_dir) \
            and not os.path.exists(meta):
        raise FileExistsError(
            f"{out_dir} is not a dataset directory; refusing to clobber")
    # Build into a hidden sibling and publish it whole once stamped: a
    # rebuild that dies leaves the previous dataset as it was.
    with replace_dir(out_dir) as tmp:
        writer = storage.DatasetDirWriter(tmp)
        try:
            with tracer.span("datagen.trips", requested=trips_n):
                for chunk_trips in chunks:
                    if matcher is not None:
                        chunk_trips = _rematch_chunk(
                            matcher, chunk_trips, spec.matcher_jobs, tracer)
                    writer.write_chunk(chunk_trips)
        finally:
            # A failed build must not leak the six open column streams
            # (file.close() is idempotent, so the happy path is unchanged).
            writer.close_streams()
        n = writer.num_trips
        with tracer.span("datagen.split"):
            # Stable argsort == the stable list.sort of the RAM path, so
            # logical (sorted) order and split boundaries agree exactly.
            order = np.argsort(writer.depart_times, kind="stable")
            train_end, val_end = split_indices(n)
        with tracer.span("datagen.speed_matrix"):
            accumulator = SpeedMatrixAccumulator(net, horizon, grid)
            for edge_ids, intervals in writer.iter_paths(order):
                accumulator.add(edge_ids, intervals)
            speed_store = accumulator.finalize()
        writer.finish(order=order, preset=preset, info=info,
                      horizon_seconds=horizon, train_end=train_end,
                      val_end=val_end, speed_store=speed_store)
        with storage.open_dataset_dir(tmp, net=net, weather=weather,
                                      traffic=traffic) as built:
            storage.stamp_fingerprint(tmp, dataset_fingerprint(built))
    return storage.open_dataset_dir(out_dir, net=net, weather=weather,
                                    traffic=traffic)


# ----------------------------------------------------------------------
# BENCH_datagen.json schema
# ----------------------------------------------------------------------
BENCH_DATAGEN_SCHEMA = "repro.bench.datagen/v1"


def _require_number(payload, section, key):
    value = payload.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{section}.{key} must be a number "
                         f"(got {value!r})")
    if value < 0:
        raise ValueError(f"{section}.{key} must be >= 0")
    return value


def validate_bench_datagen(payload) -> dict:
    """Validate a ``BENCH_datagen.json`` document; returns it unchanged.

    Fail-closed: every recorded speedup must clear its floor, the
    out-of-core build's peak memory must stay under its ceiling, and
    the parity bits (byte-identical fingerprints, identical Viterbi
    paths) must be true.  CI calls this on the bench artefact so a
    regression cannot ship a green JSON.
    """
    if not isinstance(payload, dict):
        raise ValueError("bench payload must be a JSON object")
    if payload.get("schema") != BENCH_DATAGEN_SCHEMA:
        raise ValueError(f"schema must be {BENCH_DATAGEN_SCHEMA!r} "
                         f"(got {payload.get('schema')!r})")
    if payload.get("bench") != "datagen_pipeline":
        raise ValueError("bench must be 'datagen_pipeline' "
                         f"(got {payload.get('bench')!r})")
    workload = payload.get("workload")
    if not isinstance(workload, dict):
        raise ValueError("workload must be an object")
    if workload.get("city") not in PRESETS:
        raise ValueError(f"workload.city {workload.get('city')!r} is not "
                         "a known preset")
    for key in ("trips", "days", "chunk_size"):
        _require_number(workload, "workload", key)

    throughput = payload.get("throughput")
    if not isinstance(throughput, dict):
        raise ValueError("throughput must be an object")
    for key in ("trips_per_s", "build_s", "floor"):
        _require_number(throughput, "throughput", key)
    if throughput["trips_per_s"] < throughput["floor"]:
        raise ValueError(
            f"throughput {throughput['trips_per_s']:.1f} trips/s below "
            f"the {throughput['floor']:.1f} floor")

    memory = payload.get("memory")
    if not isinstance(memory, dict):
        raise ValueError("memory must be an object")
    for key in ("ram_peak_delta_kb", "disk_peak_delta_kb", "ratio",
                "ceiling"):
        _require_number(memory, "memory", key)
    if memory["ratio"] > memory["ceiling"]:
        raise ValueError(
            f"out-of-core peak RSS ratio {memory['ratio']:.2f} above "
            f"the {memory['ceiling']:.2f} ceiling")

    viterbi = payload.get("viterbi")
    if not isinstance(viterbi, dict):
        raise ValueError("viterbi must be an object")
    for key in ("reference_s", "vectorized_s", "speedup", "floor",
                "trips"):
        _require_number(viterbi, "viterbi", key)
    if viterbi["speedup"] < viterbi["floor"]:
        raise ValueError(
            f"viterbi speedup {viterbi['speedup']:.2f}x below the "
            f"{viterbi['floor']:.2f}x floor")
    if viterbi.get("paths_identical") is not True:
        raise ValueError("viterbi.paths_identical must be true")

    parallel = payload.get("parallel")
    if not isinstance(parallel, dict):
        raise ValueError("parallel must be an object")
    for key in ("jobs", "serial_s", "parallel_s", "speedup", "floor"):
        _require_number(parallel, "parallel", key)
    if parallel.get("mode") not in ("stall", "real"):
        raise ValueError("parallel.mode must be 'stall' or 'real'")
    if parallel["speedup"] < parallel["floor"]:
        raise ValueError(
            f"match_many speedup {parallel['speedup']:.2f}x below the "
            f"{parallel['floor']:.2f}x floor")

    if payload.get("fingerprint_equal") is not True:
        raise ValueError("fingerprint_equal must be true (chunked and "
                         "one-shot builds diverged)")
    return payload


def validate_bench_datagen_file(path: str) -> dict:
    """Load and validate a ``BENCH_datagen.json`` file (CI entry point)."""
    import json
    with open(path) as handle:
        return validate_bench_datagen(json.load(handle))
