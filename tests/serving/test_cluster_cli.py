"""CLI surface of the cluster: ``loadtest`` and ``serve --workers``."""

import json

import pytest

from repro.cli import main


class TestLoadtestCLI:
    def test_writes_valid_bench_and_metrics(self, artifact_dir, tmp_path,
                                            capsys):
        bench_path = tmp_path / "bench.json"
        metrics_path = tmp_path / "metrics.json"
        assert main(["loadtest", "--artifact", artifact_dir,
                     "--workers", "2", "--queries", "32", "--rps", "200",
                     "--out", str(bench_path),
                     "--metrics-out", str(metrics_path)]) == 0
        out = capsys.readouterr().out
        assert "model saturation" in out
        assert "open loop @ 200 rps" in out

        from repro.obs import validate_metrics_file
        report = json.loads(bench_path.read_text())
        assert report["config"]["workers"] == 2
        assert report["model"]["degraded"] == 0
        assert report["open_loop"]["failed"] == 0
        snap = validate_metrics_file(str(metrics_path))
        assert snap["histograms"]["loadtest.latency_ms"]["count"] == 32

    def test_rejects_bad_artifact(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["loadtest", "--artifact", str(tmp_path / "nope")])


class TestServeWorkersCLI:
    def test_query_through_cluster(self, artifact_dir, serving_dataset,
                                   capsys):
        trip = serving_dataset.split.test[0]
        query = json.dumps({"origin": list(trip.od.origin_xy),
                            "destination": list(trip.od.destination_xy),
                            "depart_time": trip.od.depart_time})
        assert main(["serve", "--artifact", artifact_dir,
                     "--workers", "2", "--query", query]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["source"] == "model"
        assert payload["seconds"] > 0

    def test_cluster_answers_match_single_process(self, artifact_dir,
                                                  serving_dataset,
                                                  capsys):
        trip = serving_dataset.split.test[1]
        query = json.dumps({"origin": list(trip.od.origin_xy),
                            "destination": list(trip.od.destination_xy),
                            "depart_time": trip.od.depart_time})
        assert main(["serve", "--artifact", artifact_dir,
                     "--query", query]) == 0
        single = json.loads(capsys.readouterr().out.strip())
        assert main(["serve", "--artifact", artifact_dir,
                     "--workers", "3", "--query", query]) == 0
        clustered = json.loads(capsys.readouterr().out.strip())
        assert clustered == single
