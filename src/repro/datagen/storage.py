"""On-disk dataset directory layout for out-of-core builds.

A disk-backed build streams each chunk of trips into flat append-only
binary files (raw little-endian arrays — headerless so chunks can be
appended without knowing the final shape) plus one ``meta.json``:

========  ==============  =====================================
file      shape            contents
========  ==============  =====================================
trip_f8   (n, 10) f8      depart, travel_time, origin x/y,
                          destination x/y, OD ratio start/end,
                          trajectory ratio start/end
trip_i8   (n, 3)  i8      origin edge, destination edge, weather
path_len  (n,)    i8      path elements per trip
path_edge (P,)    i8      concatenated path edge ids
path_time (P, 2)  f8      concatenated [enter, exit] intervals
gps_len   (n,)    i8      GPS fixes per trip
gps_xyt   (G, 3)  f8      concatenated [x, y, timestamp] fixes
order     (n,)    i8      stable departure-time argsort
                          (logical sorted index -> physical row)
speed     (p,r,c) f8      finished mean-speed matrices
========  ==============  =====================================

Trips are stored in *generation* order; ``order`` presents them sorted
by departure time, exactly as the in-RAM pipeline sorts before
splitting.  ``open_dataset_dir`` memory-maps everything and regenerates
the road network / weather / traffic processes from the preset seeds
(they are tiny and deterministic), so opening a mega dataset costs a
few page faults, not a rebuild.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from collections.abc import Sequence
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..roadnet.graph import RoadNetwork
from ..temporal.timeslot import TimeSlotConfig
from ..trajectory.model import (
    GPSPoint, MatchedTrajectory, ODInput, PathElement, RawTrajectory,
    TripRecord,
)
from .cities import PRESETS, CityPreset, preset_network
from .dataset import BuildInfo, DatasetSplit, TaxiDataset
from .speed_matrix import SpeedGridConfig, SpeedMatrixStore
from .traffic import TrafficConfig, TrafficModel
from .weather import WeatherProcess

DATASET_DIR_SCHEMA = "repro.datagen.dataset_dir/v1"
META_FILE = "meta.json"

_TRIP_F8_COLS = 10
_TRIP_I8_COLS = 3

_FILES = {
    "trip_f8": "trip_f8.bin",
    "trip_i8": "trip_i8.bin",
    "path_len": "path_len.bin",
    "path_edges": "path_edges.bin",
    "path_times": "path_times.bin",
    "gps_len": "gps_len.bin",
    "gps_xyt": "gps_xyt.bin",
    "order": "order.bin",
    "speed": "speed.bin",
}


class DatasetDirWriter:
    """Append trip chunks to a dataset directory, then finalise it."""

    def __init__(self, directory: str):
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self._streams = {
            key: open(os.path.join(self.directory, _FILES[key]), "wb")
            for key in ("trip_f8", "trip_i8", "path_len", "path_edges",
                        "path_times", "gps_len", "gps_xyt")
        }
        self.num_trips = 0
        self.path_total = 0
        self.gps_total = 0
        self._depart: List[float] = []

    def write_chunk(self, trips: Sequence) -> None:
        if not trips:
            return
        n = len(trips)
        f8 = np.empty((n, _TRIP_F8_COLS))
        i8 = np.empty((n, _TRIP_I8_COLS), dtype=np.int64)
        path_len = np.empty(n, dtype=np.int64)
        gps_len = np.empty(n, dtype=np.int64)
        edge_blocks: List[np.ndarray] = []
        time_blocks: List[np.ndarray] = []
        gps_blocks: List[np.ndarray] = []
        for k, trip in enumerate(trips):
            od = trip.od
            traj = trip.trajectory
            raw = trip.raw
            if traj is None or raw is None:
                raise ValueError("disk builds require trips with both a "
                                 "trajectory and raw GPS")
            f8[k] = (od.depart_time, trip.travel_time,
                     od.origin_xy[0], od.origin_xy[1],
                     od.destination_xy[0], od.destination_xy[1],
                     od.ratio_start, od.ratio_end,
                     traj.ratio_start, traj.ratio_end)
            i8[k] = (od.origin_edge, od.destination_edge, od.weather)
            edges, intervals = traj.encoder_arrays()
            path_len[k] = len(edges)
            edge_blocks.append(np.asarray(edges, dtype=np.int64))
            time_blocks.append(np.asarray(intervals, dtype=np.float64))
            pts = np.array([(p.x, p.y, p.timestamp) for p in raw.points])
            gps_len[k] = len(pts)
            gps_blocks.append(pts)
        self._streams["trip_f8"].write(f8.tobytes())
        self._streams["trip_i8"].write(i8.tobytes())
        self._streams["path_len"].write(path_len.tobytes())
        self._streams["path_edges"].write(
            np.concatenate(edge_blocks).tobytes())
        self._streams["path_times"].write(
            np.concatenate(time_blocks).tobytes())
        self._streams["gps_len"].write(gps_len.tobytes())
        self._streams["gps_xyt"].write(np.concatenate(gps_blocks).tobytes())
        self.num_trips += n
        self.path_total += int(path_len.sum())
        self.gps_total += int(gps_len.sum())
        self._depart.extend(float(t) for t in f8[:, 0])

    def close_streams(self) -> None:
        for stream in self._streams.values():
            stream.close()

    @property
    def depart_times(self) -> np.ndarray:
        """Departure times in generation (physical) order."""
        return np.asarray(self._depart)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, _FILES[key])

    def iter_paths(self, order: np.ndarray
                   ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Stream (edge_ids, intervals) per trip in ``order`` from disk.

        Feeds the speed accumulator after the streams close — the
        second, sorted pass of a chunked build — without re-reading
        trip records into Python objects.
        """
        path_len = np.fromfile(self._path("path_len"), dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(path_len)))
        edges = np.memmap(self._path("path_edges"), dtype=np.int64,
                          mode="r")
        times_map = np.memmap(self._path("path_times"), dtype=np.float64,
                              mode="r")
        times = times_map.reshape(-1, 2)
        try:
            for j in order:
                lo, hi = offsets[j], offsets[j + 1]
                yield edges[lo:hi], times[lo:hi]
        finally:
            # The yielded slices are consumed within each iteration
            # (the speed accumulator copies what it keeps), so the maps
            # close as soon as the generator is exhausted or dropped.
            edges._mmap.close()
            times_map._mmap.close()

    def finish(self, order: np.ndarray, preset: CityPreset,
               info: BuildInfo, horizon_seconds: float, train_end: int,
               val_end: int, speed_store: SpeedMatrixStore) -> None:
        """Write the order index, speed matrices and ``meta.json``."""
        np.asarray(order, dtype=np.int64).tofile(self._path("order"))
        matrices = np.ascontiguousarray(speed_store._matrices,
                                        dtype=np.float64)
        matrices.tofile(self._path("speed"))
        meta = {
            "schema": DATASET_DIR_SCHEMA,
            "city": preset.name,
            "build_info": info.to_dict(),
            "num_trips": int(self.num_trips),
            "path_total": int(self.path_total),
            "gps_total": int(self.gps_total),
            "horizon_seconds": float(horizon_seconds),
            "slot_seconds": float(preset.slot_seconds),
            "split": {"train_end": int(train_end),
                      "val_end": int(val_end)},
            "speed": {
                "periods": int(speed_store.periods),
                "rows": int(speed_store.rows),
                "cols": int(speed_store.cols),
                "min_x": float(speed_store.min_x),
                "min_y": float(speed_store.min_y),
                "cell_metres": float(speed_store.config.cell_metres),
                "period_seconds": float(speed_store.config.period_seconds),
                "global_mean_speed": float(speed_store.global_mean_speed),
            },
            "fingerprint": None,
        }
        _write_meta(self.directory, meta)


def _write_meta(directory: str, meta: Dict[str, object]) -> None:
    path = os.path.join(directory, META_FILE)
    with open(path, "w") as handle:
        json.dump(meta, handle, indent=2)
        handle.write("\n")


def read_meta(directory: str) -> Dict[str, object]:
    path = os.path.join(directory, META_FILE)
    with open(path) as handle:
        meta = json.load(handle)
    schema = meta.get("schema")
    if schema != DATASET_DIR_SCHEMA:
        raise ValueError(f"unsupported dataset dir schema {schema!r} "
                         f"(expected {DATASET_DIR_SCHEMA})")
    return meta


def stamp_fingerprint(directory: str, fingerprint: str) -> None:
    """Record the dataset fingerprint in ``meta.json`` after assembly."""
    meta = read_meta(directory)
    meta["fingerprint"] = fingerprint
    _write_meta(directory, meta)


class TripStore(Sequence):
    """Memory-mapped, lazily-materialising Sequence of trip records.

    Rows live on disk in generation order; the ``order`` index presents
    them sorted by departure time.  ``__getitem__`` materialises one
    :class:`TripRecord` at a time through a small LRU, so iterating a
    mega dataset never holds more than ``cache_trips`` records.
    """

    def __init__(self, directory: str, meta: Dict[str, object],
                 cache_trips: int = 4096):
        self.directory = str(directory)
        n = int(meta["num_trips"])
        path_total = int(meta["path_total"])
        gps_total = int(meta["gps_total"])
        join = os.path.join
        self._trip_f8 = np.memmap(join(directory, _FILES["trip_f8"]),
                                  dtype=np.float64, mode="r",
                                  shape=(n, _TRIP_F8_COLS))
        self._trip_i8 = np.memmap(join(directory, _FILES["trip_i8"]),
                                  dtype=np.int64, mode="r",
                                  shape=(n, _TRIP_I8_COLS))
        path_len = np.fromfile(join(directory, _FILES["path_len"]),
                               dtype=np.int64)
        gps_len = np.fromfile(join(directory, _FILES["gps_len"]),
                              dtype=np.int64)
        if len(path_len) != n or len(gps_len) != n:
            raise ValueError("corrupt dataset dir: length files disagree "
                             "with num_trips")
        self._path_offsets = np.concatenate(([0], np.cumsum(path_len)))
        self._gps_offsets = np.concatenate(([0], np.cumsum(gps_len)))
        if int(self._path_offsets[-1]) != path_total \
                or int(self._gps_offsets[-1]) != gps_total:
            raise ValueError("corrupt dataset dir: stream totals disagree "
                             "with meta.json")
        self._path_edges = np.memmap(join(directory, _FILES["path_edges"]),
                                     dtype=np.int64, mode="r",
                                     shape=(path_total,))
        self._path_times = np.memmap(join(directory, _FILES["path_times"]),
                                     dtype=np.float64, mode="r",
                                     shape=(path_total, 2))
        self._gps_xyt = np.memmap(join(directory, _FILES["gps_xyt"]),
                                  dtype=np.float64, mode="r",
                                  shape=(gps_total, 3))
        self._order = np.memmap(join(directory, _FILES["order"]),
                                dtype=np.int64, mode="r", shape=(n,))
        self._n = n
        self._cache: "OrderedDict[int, TripRecord]" = OrderedDict()
        self._cache_trips = int(cache_trips)

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(*index.indices(self._n))]
        i = int(index)
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError(f"trip index {index} out of range")
        cached = self._cache.get(i)
        if cached is not None:
            self._cache.move_to_end(i)
            return cached
        record = self._materialise(int(self._order[i]))
        self._cache[i] = record
        if len(self._cache) > self._cache_trips:
            self._cache.popitem(last=False)
        return record

    def _materialise(self, j: int) -> TripRecord:
        f8 = self._trip_f8[j]
        i8 = self._trip_i8[j]
        od = ODInput(
            origin_xy=(float(f8[2]), float(f8[3])),
            destination_xy=(float(f8[4]), float(f8[5])),
            depart_time=float(f8[0]),
            origin_edge=int(i8[0]),
            destination_edge=int(i8[1]),
            ratio_start=float(f8[6]),
            ratio_end=float(f8[7]),
            weather=int(i8[2]),
        )
        lo, hi = self._path_offsets[j], self._path_offsets[j + 1]
        elements = [
            PathElement(int(eid), float(enter), float(exit_))
            for eid, (enter, exit_) in zip(self._path_edges[lo:hi],
                                           self._path_times[lo:hi])
        ]
        trajectory = MatchedTrajectory(elements, float(f8[8]),
                                       float(f8[9]))
        lo, hi = self._gps_offsets[j], self._gps_offsets[j + 1]
        points = [GPSPoint(float(x), float(y), float(t))
                  for x, y, t in self._gps_xyt[lo:hi]]
        raw = RawTrajectory(points)
        return TripRecord(od=od, travel_time=float(f8[1]),
                          trajectory=trajectory, raw=raw)

    # Column views (sorted order) power the dataset fingerprint without
    # materialising records.
    @property
    def depart_times(self) -> np.ndarray:
        return np.asarray(self._trip_f8[:, 0])[self._order]

    @property
    def travel_times(self) -> np.ndarray:
        return np.asarray(self._trip_f8[:, 1])[self._order]

    def close(self) -> None:
        """Release the store's memory maps (R001 lifecycle).

        Any access after ``close()`` is invalid; cached records built
        before the close stay usable (they hold materialised copies).
        """
        self._cache.clear()
        for name in ("_trip_f8", "_trip_i8", "_path_edges",
                     "_path_times", "_gps_xyt", "_order"):
            mm = getattr(getattr(self, name, None), "_mmap", None)
            if mm is not None and not mm.closed:
                mm.close()


class TripSlice(Sequence):
    """A contiguous view of a :class:`TripStore` (one split partition)."""

    def __init__(self, store: TripStore, start: int, stop: int):
        if not 0 <= start <= stop <= len(store):
            raise ValueError(f"invalid slice [{start}, {stop}) of "
                             f"{len(store)} trips")
        self._store = store
        self._start = start
        self._stop = stop

    def __len__(self) -> int:
        return self._stop - self._start

    def __getitem__(self, index):
        n = len(self)
        if isinstance(index, slice):
            return [self[k] for k in range(*index.indices(n))]
        i = int(index)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"trip index {index} out of range")
        return self._store[self._start + i]


def open_dataset_dir(directory: str, cache_trips: int = 4096, *,
                     net: Optional[RoadNetwork] = None,
                     weather: Optional[WeatherProcess] = None,
                     traffic: Optional[TrafficModel] = None
                     ) -> TaxiDataset:
    """Open a finished dataset directory as a memory-mapped dataset.

    ``net`` / ``weather`` / ``traffic`` are the preset's processes when
    the caller already holds them (the build that just wrote the
    directory); each one omitted is regenerated from the preset seeds.
    """
    meta = read_meta(directory)
    city = str(meta["city"])
    if city not in PRESETS:
        raise KeyError(f"dataset dir references unknown preset {city!r}")
    preset = PRESETS[city]
    info = BuildInfo.from_dict(meta["build_info"])
    horizon = float(meta["horizon_seconds"])
    if net is None:
        net = preset_network(preset)
    if weather is None:
        weather = WeatherProcess(horizon, seed=preset.seed + 1)
    if traffic is None:
        traffic = TrafficModel(net, TrafficConfig(), seed=preset.seed + 2)
    store = TripStore(directory, meta, cache_trips=cache_trips)
    sp = meta["speed"]
    # Ownership of this map transfers to the SpeedMatrixStore built
    # below: TaxiDataset.close() -> speed_store.close() releases it.
    # repro: allow[R001] ownership transfers to SpeedMatrixStore
    matrices = np.memmap(
        os.path.join(directory, _FILES["speed"]), dtype=np.float64,
        mode="r",
        shape=(int(sp["periods"]), int(sp["rows"]), int(sp["cols"])))
    speed_store = SpeedMatrixStore.from_arrays(
        matrices, min_x=float(sp["min_x"]), min_y=float(sp["min_y"]),
        config=SpeedGridConfig(cell_metres=float(sp["cell_metres"]),
                               period_seconds=float(sp["period_seconds"])),
        global_mean_speed=float(sp["global_mean_speed"]))
    split_meta = meta["split"]
    train_end = int(split_meta["train_end"])
    val_end = int(split_meta["val_end"])
    split = DatasetSplit(
        train=TripSlice(store, 0, train_end),
        validation=TripSlice(store, train_end, val_end),
        test=TripSlice(store, val_end, len(store)),
    )
    return TaxiDataset(
        name=preset.name, net=net, trips=store, split=split,
        slot_config=TimeSlotConfig(base_timestamp=0.0,
                                   slot_seconds=float(meta["slot_seconds"])),
        weather=weather, traffic=traffic, speed_store=speed_store,
        horizon_seconds=horizon, build_params=info)
