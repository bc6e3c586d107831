"""The serving side of a training dataset: what answering a query reads.

At estimation time the paper runs only M_O and M_E (Algorithm 1): their
inputs are the road network, the speed matrices, the time slots and the
weather.  The degraded tiers add TEMP's fitted trip table.  None of that
needs a trip, so :class:`ServingDataset` holds exactly that state and
stands in for the :class:`~repro.datagen.dataset.TaxiDataset` a
predictor and a :class:`~repro.serving.TravelTimeService` read.

The trip side (``trips``, ``split``) is still there for the callers
that evaluate a model (promotion, calibration, benchmarks): it is
produced on first read by ``trip_side``, either the training dataset
the caller passed to ``load_artifact`` or a fingerprint-checked
regeneration from the artifact's recorded build parameters.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..baselines.temp import TEMPEstimator
from ..datagen.dataset import BuildInfo, DatasetSplit, TaxiDataset
from ..datagen.speed_matrix import SpeedMatrixStore
from ..datagen.traffic import TrafficModel
from ..datagen.weather import WeatherProcess
from ..roadnet.graph import RoadNetwork
from ..trajectory.model import TripRecord


class ServingDataset:
    """A dataset's serving state, restored from an artifact bundle.

    ``speed_store`` is memory-mapped from the bundle; :meth:`close` (or
    the context manager) releases the map.  ``temp`` is TEMP fitted from
    the bundled record table.  ``fingerprint`` is the training dataset's
    fingerprint recorded in the artifact manifest.
    """

    def __init__(self, *, name: str, net: RoadNetwork,
                 slot_config, weather: WeatherProcess,
                 traffic: TrafficModel, speed_store: SpeedMatrixStore,
                 horizon_seconds: float, build_params: Optional[BuildInfo],
                 fingerprint: str, temp: TEMPEstimator,
                 trip_side: Callable[[], TaxiDataset]):
        self.name = name
        self.net = net
        self.slot_config = slot_config
        self.weather = weather
        self.traffic = traffic
        self.speed_store = speed_store
        self.horizon_seconds = float(horizon_seconds)
        self.build_params = build_params
        self.fingerprint = fingerprint
        self.temp = temp
        self._trip_side = trip_side
        self._trip_dataset: Optional[TaxiDataset] = None

    def _trip_dataset_once(self) -> TaxiDataset:
        if self._trip_dataset is None:
            self._trip_dataset = self._trip_side()
        return self._trip_dataset

    @property
    def trips(self) -> Sequence[TripRecord]:
        """The training dataset's trips (produced on first read)."""
        return self._trip_dataset_once().trips

    @property
    def split(self) -> DatasetSplit:
        """The training dataset's split (produced on first read)."""
        return self._trip_dataset_once().split

    def close(self) -> None:
        """Release the bundle's speed-matrix map.  The trip side is the
        caller's or an in-memory regeneration: nothing to release."""
        self.speed_store.close()

    def __enter__(self) -> "ServingDataset":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def fitted_temp(dataset) -> TEMPEstimator:
    """TEMP over a dataset's training split: the bundled fit of a
    :class:`ServingDataset` (no trip read), a fresh fit otherwise."""
    if isinstance(dataset, ServingDataset):
        return dataset.temp
    return TEMPEstimator().fit(dataset)
