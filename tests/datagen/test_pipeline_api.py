"""Tests for the chunked build pipeline and the typed DatasetSpec API.

The invariants here are the contract of the out-of-core path: chunked
builds (any chunk size, any worker count) are byte-identical to the
one-shot in-memory build, and the on-disk dataset directory round-trips
through ``TaxiDataset.open`` without changing the fingerprint.
"""

import os

import numpy as np
import pytest

from benchmarks.benchfile import check
from repro.datagen import (
    BuildInfo, DatasetSpec, TaxiDataset, build, dataset_fingerprint,
    split_indices,
)
from repro.datagen.storage import (
    DatasetDirWriter, open_dataset_dir, read_meta, stamp_fingerprint,
)

CITY = "mini-chengdu"
TRIPS = 90
DAYS = 3


@pytest.fixture(scope="module")
def oneshot():
    return build(DatasetSpec(CITY, num_trips=TRIPS, num_days=DAYS))


def _assert_records_equal(a, b):
    assert len(a.trips) == len(b.trips)
    for ta, tb in zip(a.trips, b.trips):
        assert ta.od.depart_time == tb.od.depart_time
        assert ta.od.origin_xy == tb.od.origin_xy
        assert ta.travel_time == tb.travel_time
        assert ta.trajectory.edge_ids == tb.trajectory.edge_ids
        assert ta.trajectory.ratio_start == tb.trajectory.ratio_start


class TestDatasetSpec:
    def test_frozen(self):
        spec = DatasetSpec(CITY)
        with pytest.raises(AttributeError):
            spec.city = "mini-xian"

    def test_rejects_bad_storage(self):
        with pytest.raises(ValueError, match="storage"):
            DatasetSpec(CITY, storage="tape")

    def test_disk_requires_out_dir(self):
        with pytest.raises(ValueError, match="out_dir"):
            DatasetSpec(CITY, storage="disk")

    def test_ram_forbids_out_dir(self):
        with pytest.raises(ValueError, match="out_dir"):
            DatasetSpec(CITY, out_dir="somewhere")

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            DatasetSpec(CITY, num_trips=0)
        with pytest.raises(ValueError):
            DatasetSpec(CITY, matcher_jobs=0)

    def test_unknown_city_raises_at_build(self):
        with pytest.raises(KeyError, match="atlantis"):
            build(DatasetSpec("atlantis", num_trips=10))


class TestBuildInfo:
    def test_round_trips_through_dict(self):
        info = BuildInfo(CITY, TRIPS, DAYS)
        assert BuildInfo.from_dict(info.to_dict()) == info

    def test_to_dict_matches_legacy_params(self):
        # Artifact manifests hashed these three keys for years of
        # fingerprints; defaults must not leak new keys in.
        info = BuildInfo(CITY, TRIPS, DAYS)
        assert info.to_dict() == {
            "city": CITY, "num_trips": TRIPS, "num_days": DAYS}

    def test_extras_survive_round_trip(self):
        info = BuildInfo(CITY, TRIPS, DAYS, chunk_size=64,
                         storage="disk", matcher_jobs=2)
        again = BuildInfo.from_dict(info.to_dict())
        assert again.chunk_size == 64
        assert again.storage == "disk"

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            BuildInfo.from_dict({"city": CITY, "num_trips": 1,
                                 "num_days": 1, "color": "red"})

    def test_dataset_coerces_dict_build_params(self, oneshot):
        clone = TaxiDataset(
            name=oneshot.name, net=oneshot.net, trips=oneshot.trips,
            split=oneshot.split, slot_config=oneshot.slot_config,
            weather=oneshot.weather, traffic=oneshot.traffic,
            speed_store=oneshot.speed_store,
            horizon_seconds=oneshot.horizon_seconds,
            build_params={"city": CITY, "num_trips": TRIPS,
                          "num_days": DAYS})
        assert isinstance(clone.build_params, BuildInfo)


class TestChunkedParity:
    def test_chunked_ram_is_byte_identical(self, oneshot):
        chunked = build(DatasetSpec(CITY, num_trips=TRIPS, num_days=DAYS,
                                    chunk_size=17))
        _assert_records_equal(oneshot, chunked)
        assert dataset_fingerprint(chunked) == dataset_fingerprint(oneshot)

    def test_disk_build_matches_ram(self, oneshot, tmp_path):
        out = str(tmp_path / "ds")
        disk = build(DatasetSpec(CITY, num_trips=TRIPS, num_days=DAYS,
                                 chunk_size=32, storage="disk",
                                 out_dir=out))
        _assert_records_equal(oneshot, disk)
        assert dataset_fingerprint(disk) == dataset_fingerprint(oneshot)
        # Split boundaries agree too.
        assert len(disk.split.train) == len(oneshot.split.train)
        assert len(disk.split.validation) == len(oneshot.split.validation)

    def test_open_round_trips(self, oneshot, tmp_path):
        out = str(tmp_path / "ds")
        build(DatasetSpec(CITY, num_trips=TRIPS, num_days=DAYS,
                          chunk_size=32, storage="disk", out_dir=out))
        reopened = TaxiDataset.open(out)
        _assert_records_equal(oneshot, reopened)
        assert dataset_fingerprint(reopened) == dataset_fingerprint(oneshot)
        assert read_meta(out)["fingerprint"] == dataset_fingerprint(oneshot)
        assert reopened.build_params.storage == "disk"

    def test_failed_stamp_keeps_meta_readable(self, oneshot, tmp_path):
        out = str(tmp_path / "ds")
        build(DatasetSpec(CITY, num_trips=TRIPS, num_days=DAYS,
                          chunk_size=32, storage="disk",
                          out_dir=out)).close()
        before = read_meta(out)
        with pytest.raises(TypeError):
            stamp_fingerprint(out, object())
        assert read_meta(out) == before
        with TaxiDataset.open(out) as reopened:
            assert dataset_fingerprint(reopened) == before["fingerprint"]

    def test_disk_build_reuses_its_processes(self, oneshot, tmp_path,
                                             monkeypatch):
        # The build hands its network / weather / traffic to the open
        # step instead of regenerating them from the preset.
        from repro.datagen import storage

        def regenerate(preset):
            raise AssertionError("disk build regenerated its network")

        monkeypatch.setattr(storage, "preset_network", regenerate)
        out = str(tmp_path / "ds")
        disk = build(DatasetSpec(CITY, num_trips=TRIPS, num_days=DAYS,
                                 chunk_size=32, storage="disk",
                                 out_dir=out))
        assert dataset_fingerprint(disk) == dataset_fingerprint(oneshot)
        monkeypatch.undo()
        with TaxiDataset.open(out) as reopened:
            assert reopened.net is not disk.net
            assert (dataset_fingerprint(reopened)
                    == read_meta(out)["fingerprint"])
        disk.close()

    def test_speed_matrix_identical(self, oneshot, tmp_path):
        out = str(tmp_path / "ds")
        disk = build(DatasetSpec(CITY, num_trips=TRIPS, num_days=DAYS,
                                 chunk_size=32, storage="disk",
                                 out_dir=out))
        np.testing.assert_array_equal(
            np.asarray(disk.speed_store._matrices),
            oneshot.speed_store._matrices)

    def test_generate_chunks_underflow_raises(self, oneshot):
        from repro.datagen import TripConfig, TripGenerator
        gen = TripGenerator(
            oneshot.net, oneshot.traffic, oneshot.weather, seed=3,
            config=TripConfig(min_trip_edges=10_000))
        with pytest.raises(RuntimeError, match="could only generate"):
            list(gen.generate_chunks(5, chunk_size=2))


class TestRebuild:
    """A disk build publishes its directory whole: a rebuild over an
    existing dataset replaces it only once the new one is stamped."""

    def _spec(self, out, trips=TRIPS):
        return DatasetSpec(CITY, num_trips=trips, num_days=DAYS,
                           chunk_size=32, storage="disk", out_dir=out)

    def test_rebuild_replaces_and_reads_from_out_dir(self, tmp_path):
        out = str(tmp_path / "ds")
        build(self._spec(out)).close()
        with build(self._spec(out, trips=TRIPS - 30)) as rebuilt:
            assert len(rebuilt.trips) == TRIPS - 30
            assert rebuilt.trips.directory == out
            assert (dataset_fingerprint(rebuilt)
                    == read_meta(out)["fingerprint"])
        assert os.listdir(tmp_path) == ["ds"]

    def test_build_dying_mid_chunk_keeps_previous_dataset(self, tmp_path,
                                                          monkeypatch):
        out = str(tmp_path / "ds")
        build(self._spec(out)).close()
        before = read_meta(out)["fingerprint"]
        write_chunk = DatasetDirWriter.write_chunk
        written = []

        def dying(writer, trips):
            if written:
                raise RuntimeError("build killed mid-chunk")
            written.append(len(trips))
            write_chunk(writer, trips)

        monkeypatch.setattr(DatasetDirWriter, "write_chunk", dying)
        with pytest.raises(RuntimeError, match="mid-chunk"):
            build(self._spec(out, trips=TRIPS - 30))
        monkeypatch.undo()
        assert written and os.listdir(tmp_path) == ["ds"]
        assert read_meta(out)["fingerprint"] == before
        with TaxiDataset.open(out) as reopened:
            assert len(reopened.trips) == TRIPS
            assert dataset_fingerprint(reopened) == before

    def test_refuses_non_dataset_dir(self, tmp_path):
        out = tmp_path / "notes"
        out.mkdir()
        (out / "keep.txt").write_text("mine")
        with pytest.raises(FileExistsError, match="refusing to clobber"):
            build(self._spec(str(out)))
        assert os.listdir(out) == ["keep.txt"]
        assert (out / "keep.txt").read_text() == "mine"
        assert os.listdir(tmp_path) == ["notes"]


class TestSplitIndices:
    def test_matches_legacy_ratios(self):
        train_end, val_end = split_indices(100)
        assert (train_end, val_end) == (68, 80)

    def test_tiny_dataset_keeps_all_splits_nonempty(self):
        for n in (4, 5, 10):
            train_end, val_end = split_indices(n)
            assert 0 < train_end < val_end < n


class TestStorageErrors:
    def test_open_missing_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            open_dataset_dir(str(tmp_path / "nope"))

    def test_writer_rejects_stripped_trips(self, oneshot, tmp_path):
        from repro.datagen import strip_trajectories
        writer = DatasetDirWriter(str(tmp_path / "ds"))
        try:
            with pytest.raises(ValueError, match="trajectory and raw GPS"):
                writer.write_chunk(strip_trajectories(oneshot.trips[:2]))
        finally:
            writer.close_streams()


class TestBenchSchema:
    def _payload(self):
        return {
            "schema": "repro.bench.datagen/v1",
            "bench": "datagen_pipeline",
            "workload": {"city": "mega-chengdu", "trips": 4000,
                         "days": 2, "chunk_size": 512},
            "throughput": {"trips_per_s": 120.0, "build_s": 33.0,
                           "floor": 40.0},
            "memory": {"ram_peak_delta_kb": 90_000,
                       "disk_peak_delta_kb": 30_000,
                       "ratio": 0.33, "ceiling": 0.5},
            "viterbi": {"reference_s": 1.6, "vectorized_s": 0.4,
                        "speedup": 4.0, "floor": 3.0, "trips": 40,
                        "paths_identical": True},
            "parallel": {"jobs": 4, "serial_s": 8.0, "parallel_s": 2.6,
                         "speedup": 3.1, "floor": 2.0, "mode": "stall"},
            "fingerprint_equal": True,
        }

    def test_valid_payload_passes(self):
        payload = self._payload()
        assert check(payload) is payload

    def test_floor_violations_fail_closed(self):
        payload = self._payload()
        payload["viterbi"]["speedup"] = 2.0
        with pytest.raises(ValueError, match="below"):
            check(payload)

    def test_memory_ceiling_enforced(self):
        payload = self._payload()
        payload["memory"]["ratio"] = 0.9
        with pytest.raises(ValueError, match="ceiling"):
            check(payload)

    def test_fingerprint_divergence_fails(self):
        payload = self._payload()
        payload["fingerprint_equal"] = False
        with pytest.raises(ValueError, match="fingerprint"):
            check(payload)

    def test_wrong_schema_fails(self):
        payload = self._payload()
        payload["schema"] = "repro.bench.datagen/v0"
        with pytest.raises(ValueError, match="schema"):
            check(payload)
