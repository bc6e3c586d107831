"""Service-level tests: wiring, fallback activation, front-ends, CLI."""

import io
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.serving import (
    RouteTimeBaseline, SaturatedError, ServiceConfig, ServingHTTPServer,
    TravelTimeService, parse_query, run_jsonl_loop,
)
from repro.trajectory import Query


@pytest.fixture()
def service(trained_predictor):
    return TravelTimeService(trained_predictor)


def sample_queries(dataset, n=5):
    return [Query(t.od.origin_xy, t.od.destination_xy, t.od.depart_time)
            for t in dataset.split.test[:n]]


class TestModelPath:
    def test_query_matches_predictor(self, service, trained_predictor,
                                     serving_dataset):
        query = sample_queries(serving_dataset, 1)[0]
        response = service.query(query)
        estimate = trained_predictor.estimate(query)
        assert response.seconds == pytest.approx(estimate.seconds)
        assert response.lower == pytest.approx(estimate.lower)
        assert response.upper == pytest.approx(estimate.upper)
        assert response.source == "model"
        assert not response.degraded

    def test_query_batch_vectorises(self, service, serving_dataset):
        queries = sample_queries(serving_dataset, 5)
        responses = service.query_batch(queries)
        assert len(responses) == 5
        singles = [service.query(q).seconds for q in queries]
        assert [r.seconds for r in responses] == pytest.approx(singles)

    def test_repeat_queries_hit_match_cache(self, service, serving_dataset):
        query = sample_queries(serving_dataset, 1)[0]
        service.query(query)
        service.query(query)
        stats = service.od_cache.stats()
        assert stats["hits"] >= 2          # both endpoints cached

    def test_metrics_accounting(self, service, serving_dataset):
        for query in sample_queries(serving_dataset, 3):
            service.query(query)
        snap = service.metrics_snapshot()
        assert snap["counters"]["queries_total"] == 3
        assert snap["counters"]["model_answers"] == 3
        assert snap["histograms"]["latency_ms"]["count"] == 3
        assert snap["degraded"] is False
        assert "od_match_cache" in snap["gauges"]

    def test_query_batch_latency_is_the_batch_wall(self, service,
                                                   serving_dataset,
                                                   monkeypatch):
        # Every query of a synchronous batch waits for the whole batch,
        # so each one observes the batch wall, not wall / batch size.
        answer = service._answer_batch

        def slow(queries):
            time.sleep(0.02)
            return answer(queries)

        monkeypatch.setattr(service, "_answer_batch", slow)
        service.query_batch(sample_queries(serving_dataset, 5))
        hist = service.metrics.histogram("latency_ms")
        assert hist.count == 5
        assert hist.percentile(0) >= 20.0
        assert hist.percentile(0) == hist.percentile(100)

    def test_submit_through_batcher(self, service, serving_dataset):
        queries = sample_queries(serving_dataset, 4)
        service.start()
        try:
            futures = [service.submit(q) for q in queries]
            results = [f.result(timeout=10) for f in futures]
        finally:
            service.stop()
        direct = [service.query(q).seconds for q in queries]
        assert [r.seconds for r in results] == pytest.approx(direct)
        assert service.metrics.histogram("batch_size").count >= 1


class TestCapacity:
    def test_submit_sheds_past_max_pending(self, trained_predictor,
                                           serving_dataset):
        # Manually-driven batcher (never started): pending grows with
        # each submit, so the shed point is exact and deterministic.
        service = TravelTimeService(
            trained_predictor, config=ServiceConfig(max_pending=2))
        queries = sample_queries(serving_dataset, 5)
        futures = [service.submit(queries[0]) for _ in range(2)]
        with pytest.raises(SaturatedError) as excinfo:
            service.submit(queries[1])
        assert excinfo.value.retry_after_s > 0
        snap = service.metrics_snapshot()
        assert snap["counters"]["saturated_rejections"] == 1
        # Admitted queries still drain and answer.
        service.batcher.drain()
        assert all(f.result(timeout=0).seconds > 0 for f in futures)

    def test_unbounded_by_default(self, service, serving_dataset):
        query = sample_queries(serving_dataset, 1)[0]
        futures = [service.submit(query) for _ in range(64)]
        service.batcher.drain()
        assert all(f.result(timeout=0).seconds > 0 for f in futures)

    def test_answer_uses_batcher_only_when_running(self, service,
                                                   serving_dataset):
        query = sample_queries(serving_dataset, 1)[0]
        direct = service.answer(query)          # batcher not running
        assert direct.source == "model"
        service.start()
        try:
            batched = service.answer(query)
        finally:
            service.stop()
        assert batched.seconds == pytest.approx(direct.seconds)

    def test_max_pending_validation(self):
        with pytest.raises(ValueError, match="max_pending"):
            ServiceConfig(max_pending=-1)


class TestCacheGauges:
    def test_hit_rates_in_standard_snapshot(self, trained_predictor,
                                            serving_dataset):
        from repro.obs import validate_metrics_snapshot
        service = TravelTimeService(trained_predictor)
        query = sample_queries(serving_dataset, 1)[0]
        service.query(query)
        service.query(query)
        snap = service.metrics_snapshot()
        validate_metrics_snapshot(snap)
        assert snap["gauges"]["serve.cache.od.hit_rate"] > 0.0
        assert snap["gauges"]["serve.cache.od.hit_rate"] == \
            pytest.approx(service.od_cache.hit_rate)
        # No external features in the test config -> no slice cache;
        # the gauge must still exist and read 0.
        assert snap["gauges"]["serve.cache.speed.hit_rate"] == 0.0


class TestFallback:
    def test_model_failure_activates_route_tier(self, trained_predictor,
                                                serving_dataset,
                                                monkeypatch):
        service = TravelTimeService(trained_predictor)

        def explode(*args, **kwargs):
            raise RuntimeError("injected model failure")
        monkeypatch.setattr(service.predictor, "estimate_from_ods",
                            explode)
        response = service.query(sample_queries(serving_dataset, 1)[0])
        assert response.degraded
        assert response.source == "route"
        assert response.degraded_tier == 1
        assert response.origin_edge >= 0     # route tier still matches
        assert response.seconds > 0
        assert response.lower < response.seconds < response.upper
        snap = service.metrics_snapshot()
        assert snap["counters"]["model_failures"] == 1
        assert snap["counters"]["route_answers"] == 1

    def test_route_failure_falls_to_temp(self, trained_predictor,
                                         serving_dataset, monkeypatch):
        service = TravelTimeService(trained_predictor)

        def explode(*args, **kwargs):
            raise RuntimeError("injected failure")
        monkeypatch.setattr(service.predictor, "estimate_from_ods",
                            explode)
        monkeypatch.setattr(service.route_baseline, "estimate_from_ods",
                            explode)
        response = service.query(sample_queries(serving_dataset, 1)[0])
        assert response.degraded
        assert response.source == "fallback"
        assert response.degraded_tier == 2
        snap = service.metrics_snapshot()
        assert snap["counters"]["route_failures"] == 1
        assert snap["counters"]["fallback_answers"] == 1

    def test_route_tier_can_be_disabled(self, trained_predictor,
                                        serving_dataset, monkeypatch):
        # A service with a model always has the route tier; with that
        # tier out of action the ladder bottoms out at TEMP.
        service = TravelTimeService(trained_predictor)
        assert service.route_baseline is not None

        def explode(*args, **kwargs):
            raise RuntimeError("injected failure")
        monkeypatch.setattr(service.predictor, "estimate_from_ods",
                            explode)
        monkeypatch.setattr(RouteTimeBaseline, "estimate_from_ods",
                            explode)
        response = service.query(sample_queries(serving_dataset, 1)[0])
        assert response.source == "fallback"
        assert response.degraded_tier == 2

    def test_fallback_only_service(self, serving_dataset):
        service = TravelTimeService(dataset=serving_dataset)
        assert service.degraded
        response = service.query(sample_queries(serving_dataset, 1)[0])
        assert response.degraded and response.source == "fallback"
        assert response.degraded_tier == 2

    def test_needs_predictor_or_dataset(self):
        with pytest.raises(ValueError):
            TravelTimeService()


class TestJsonLines:
    def test_loop_answers_queries(self, service, serving_dataset):
        origin, dest, t = sample_queries(serving_dataset, 1)[0]
        lines = [
            json.dumps({"origin": list(origin),
                        "destination": list(dest), "depart_time": t}),
            "not json at all",
            json.dumps({"cmd": "metrics"}),
        ]
        out = io.StringIO()
        answered = run_jsonl_loop(service, io.StringIO("\n".join(lines)),
                                  out)
        assert answered == 1
        payloads = [json.loads(line) for line in
                    out.getvalue().strip().splitlines()]
        assert payloads[0]["source"] == "model"
        assert "error" in payloads[1]
        assert payloads[2]["counters"]["queries_total"] == 1

    def test_malformed_values_are_error_lines(self, service,
                                              serving_dataset):
        # json.loads accepts NaN and Infinity; neither they nor a null
        # coordinate may reach the model (or end the loop).
        origin, dest, t = sample_queries(serving_dataset, 1)[0]
        valid = {"origin": list(origin), "destination": list(dest),
                 "depart_time": t}
        lines = [json.dumps(dict(valid, depart_time=float("nan"))),
                 json.dumps(dict(valid, depart_time=float("inf"))),
                 json.dumps(dict(valid, origin=[None, 1.0])),
                 json.dumps(valid)]
        out = io.StringIO()
        answered = run_jsonl_loop(service, io.StringIO("\n".join(lines)),
                                  out)
        assert answered == 1
        payloads = [json.loads(line) for line in
                    out.getvalue().strip().splitlines()]
        assert "depart_time" in payloads[0]["error"]
        assert "depart_time" in payloads[1]["error"]
        assert "origin_xy" in payloads[2]["error"]
        assert payloads[3]["source"] == "model"
        counters = service.metrics_snapshot()["counters"]
        assert counters["queries_total"] == 1
        assert "model_failures" not in counters
        assert "route_failures" not in counters

    def test_parse_query_validation(self):
        with pytest.raises(ValueError):
            parse_query({"origin": [0, 0]})
        with pytest.raises(ValueError):
            parse_query({"origin": [0], "destination": [1, 1],
                         "depart_time": 0})
        with pytest.raises(ValueError):
            parse_query({"origin": [0, 0], "destination": [1, 1],
                         "depart_time": -5})


class TestHTTP:
    def test_http_round_trip(self, service, serving_dataset):
        service.start()
        server = ServingHTTPServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        port = server.server_address[1]
        base = f"http://127.0.0.1:{port}"
        try:
            origin, dest, t = sample_queries(serving_dataset, 1)[0]
            body = json.dumps({"origin": list(origin),
                               "destination": list(dest),
                               "depart_time": t}).encode()
            request = urllib.request.Request(
                f"{base}/estimate", data=body,
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=10) as reply:
                payload = json.loads(reply.read())
            assert payload["source"] == "model"
            assert payload["seconds"] > 0

            with urllib.request.urlopen(f"{base}/healthz",
                                        timeout=10) as reply:
                health = json.loads(reply.read())
            assert health == {"status": "ok", "degraded": False}

            with urllib.request.urlopen(f"{base}/metrics",
                                        timeout=10) as reply:
                snap = json.loads(reply.read())
            assert snap["counters"]["queries_total"] >= 1
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            service.stop()

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_http_non_finite_depart_time_is_400(self, service, bad):
        server = ServingHTTPServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        port = server.server_address[1]
        body = ('{"origin": [300, 300], "destination": [1500, 1400], '
                f'"depart_time": {bad}}}').encode()
        try:
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/estimate", data=body,
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 400
            assert "depart_time" in json.loads(excinfo.value.read())["error"]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        counters = service.metrics_snapshot()["counters"]
        for name in ("queries_total", "model_failures", "route_failures"):
            assert counters.get(name, 0) == 0

    def test_http_bad_request(self, service):
        server = ServingHTTPServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        port = server.server_address[1]
        try:
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/estimate", data=b"{}",
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 400
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


class TestServeCLI:
    def test_serve_query_end_to_end(self, artifact_dir, serving_dataset,
                                    capsys):
        origin, dest, t = sample_queries(serving_dataset, 1)[0]
        query = json.dumps({"origin": list(origin),
                            "destination": list(dest),
                            "depart_time": t})
        assert main(["serve", "--artifact", artifact_dir,
                     "--query", query]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["source"] == "model"
        assert payload["seconds"] > 0

    def test_serve_query_rejects_nan_depart_time(self, artifact_dir):
        query = ('{"origin": [300, 300], "destination": [1500, 1400], '
                 '"depart_time": NaN}')
        with pytest.raises(SystemExit, match="depart_time"):
            main(["serve", "--artifact", artifact_dir, "--query", query])

    def test_serve_rejects_bad_artifact(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["serve", "--artifact", str(tmp_path / "nope"),
                  "--query", "{}"])

    def test_train_save_artifact_then_serve(self, tmp_path, capsys):
        artifact = str(tmp_path / "model")
        assert main(["train", "--trips", "60", "--days", "7",
                     "--epochs", "1", "--eval-every", "0",
                     "--save", artifact]) == 0
        out = capsys.readouterr().out
        assert f"serving artifact saved to {artifact}" in out
        query = json.dumps({"origin": [300.0, 300.0],
                            "destination": [1500.0, 1400.0],
                            "depart_time": 612000.0})
        assert main(["serve", "--artifact", artifact,
                     "--query", query]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["source"] == "model"
