"""City presets: scaled-down synthetic stand-ins for the paper's datasets.

Table 2 of the paper compares Chengdu (5.8M orders, dense 3s GPS sampling,
short trips), Xi'an (3.4M orders, 3s sampling, longer trips) and Beijing
(56.7M orders, sparse 1-minute sampling, longest trips over a much larger
network).  The presets below reproduce those *relative* characteristics at
laptop scale:

=============  ============  ==========  ============
property       mini-chengdu  mini-xian   mini-beijing
=============  ============  ==========  ============
network size   small         medium      largest
trip count     most (of CN)  fewer       most overall
GPS period     3 s           3 s         60 s
trip length    shortest      medium      longest
=============  ============  ==========  ============

The ``mega-*`` tier scales the same three cities to 10^5-10^6 trips over
larger networks.  Mega cities are meant to be built out of core — via
``repro.datagen.pipeline.build`` with ``storage="disk"`` — because the
materialised trip objects of a full mega build do not comfortably fit in
laptop RAM.  The typed entry point for every build is
``repro.datagen.pipeline.build(DatasetSpec(...))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..roadnet.generators import grid_city
from ..roadnet.graph import RoadNetwork


@dataclass
class CityPreset:
    """Generation parameters of one synthetic city.

    Every preset city has a river with a small number of bridges, as the
    real cities do (Chengdu's Jin River, Xi'an's moat, Beijing's canals):
    crossing trips must detour to a bridge, so Euclidean OD distance is a
    poor proxy for route distance — the structural reason road-matched
    methods beat coordinate-based ones.
    """

    name: str
    grid_rows: int
    grid_cols: int
    block_size: float
    num_trips: int
    num_days: int
    gps_period: float
    min_trip_edges: int
    river_row: int = -1              # -1 disables the river
    bridge_cols: tuple = ()
    # 30-minute slots are the scaled-down sweet spot: the paper's 5-minute
    # optimum (Fig 14a) assumes millions of trips; at mini scale 5-minute
    # slots leave most weekly slots unobserved (the sparsity side of the
    # paper's own trade-off).  The Fig 14a bench sweeps this knob.
    slot_seconds: float = 1800.0
    seed: int = 0


PRESETS: Dict[str, CityPreset] = {
    "mini-chengdu": CityPreset(
        name="mini-chengdu", grid_rows=9, grid_cols=9, block_size=220.0,
        num_trips=1500, num_days=14, gps_period=3.0, min_trip_edges=4,
        river_row=4, bridge_cols=(1, 7), seed=11),
    "mini-xian": CityPreset(
        name="mini-xian", grid_rows=10, grid_cols=10, block_size=260.0,
        num_trips=1000, num_days=14, gps_period=3.0, min_trip_edges=6,
        river_row=5, bridge_cols=(2, 8), seed=22),
    "mini-beijing": CityPreset(
        name="mini-beijing", grid_rows=13, grid_cols=13, block_size=300.0,
        num_trips=2500, num_days=14, gps_period=60.0, min_trip_edges=8,
        river_row=6, bridge_cols=(2, 10), seed=33),
    # Mega tier: same relative characteristics, city-scale trip counts.
    # Tests and benches always override ``num_trips`` downward; the full
    # counts document the intended out-of-core operating point.
    "mega-chengdu": CityPreset(
        name="mega-chengdu", grid_rows=22, grid_cols=22, block_size=220.0,
        num_trips=200_000, num_days=14, gps_period=3.0, min_trip_edges=4,
        river_row=10, bridge_cols=(3, 11, 18), seed=111),
    "mega-xian": CityPreset(
        name="mega-xian", grid_rows=24, grid_cols=24, block_size=260.0,
        num_trips=120_000, num_days=14, gps_period=3.0, min_trip_edges=6,
        river_row=12, bridge_cols=(4, 12, 19), seed=222),
    "mega-beijing": CityPreset(
        name="mega-beijing", grid_rows=30, grid_cols=30, block_size=300.0,
        num_trips=500_000, num_days=14, gps_period=60.0, min_trip_edges=8,
        river_row=14, bridge_cols=(5, 15, 24), seed=333),
}


def preset_network(preset: CityPreset) -> RoadNetwork:
    """Deterministically regenerate a preset's road network.

    Shared by the build pipeline and ``TaxiDataset.open`` (the network
    is tiny relative to the trips, so disk-backed datasets regenerate
    it from the preset seed instead of serialising it).
    """
    return grid_city(preset.grid_rows, preset.grid_cols,
                     block_size=preset.block_size,
                     river_row=preset.river_row
                     if preset.river_row >= 0 else None,
                     bridge_cols=preset.bridge_cols,
                     seed=preset.seed)
