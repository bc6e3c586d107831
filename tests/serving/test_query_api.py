"""The typed Query API: the one query form, depart-time hygiene, and
trace coverage of the threaded HTTP front-end."""

import json
import math
import threading
import urllib.request

import pytest

from repro.obs import Tracer, validate_trace
from repro.serving import (
    ServingHTTPServer, TravelTimeService, parse_query,
)
from repro.trajectory import Query


def sample_tuples(dataset, n=5):
    return [(t.od.origin_xy, t.od.destination_xy, t.od.depart_time)
            for t in dataset.split.test[:n]]


class TestQueryType:
    def test_coerce_rejects_malformed(self):
        with pytest.raises(ValueError):
            Query(origin_xy=(1.0,), destination_xy=(3.0, 4.0),
                  depart_time=0.0)
        with pytest.raises(ValueError, match="destination_xy"):
            Query(origin_xy=(1.0, 2.0), destination_xy=(None, 4.0),
                  depart_time=0.0)
        with pytest.raises(TypeError):
            Query((1, 2), (3, 4))                   # missing time

    def test_iter_unpacks_as_legacy_triple(self):
        query = Query(origin_xy=(1.0, 2.0), destination_xy=(3.0, 4.0),
                      depart_time=60.0)
        origin, destination, depart = query
        assert (origin, destination, depart) == \
            ((1.0, 2.0), (3.0, 4.0), 60.0)

    def test_parse_query_returns_typed_query(self):
        query = parse_query({"origin": [1, 2], "destination": [3, 4],
                             "depart_time": 60})
        assert isinstance(query, Query)
        assert query.depart_time == 60.0


class TestPredictorEquivalence:
    def test_estimate_query_equals_spread_form(self, trained_predictor,
                                               serving_dataset):
        # ``match_query`` keeps the spread (origin, destination, t) form.
        origin, dest, t = sample_tuples(serving_dataset, 1)[0]
        spread = trained_predictor.estimate_from_ods(
            [trained_predictor.match_query(origin, dest, t)])[0]
        typed = trained_predictor.estimate(
            Query(origin_xy=origin, destination_xy=dest, depart_time=t))
        assert typed == spread

    def test_estimate_batch_query_equals_tuples(self, trained_predictor,
                                                serving_dataset):
        tuples = sample_tuples(serving_dataset, 5)
        typed = [Query(origin_xy=o, destination_xy=d, depart_time=t)
                 for o, d, t in tuples]
        from_tuples = trained_predictor.estimate_from_ods(
            [trained_predictor.match_query(*q) for q in tuples])
        from_queries = trained_predictor.estimate_batch(typed)
        assert [e.seconds for e in from_queries] == \
            [e.seconds for e in from_tuples]
        assert [e.lower for e in from_queries] == \
            [e.lower for e in from_tuples]


class TestDepartTimeHygiene:
    def test_past_horizon_is_clamped_into_stored_od(
            self, trained_predictor, serving_dataset):
        origin, dest, _ = sample_tuples(serving_dataset, 1)[0]
        horizon = serving_dataset.horizon_seconds
        od = trained_predictor.match_query(origin, dest, horizon + 9999)
        assert od.depart_time == horizon - 1.0
        # The estimate built from that OD is the same as one for the
        # last representable second — no out-of-range slot ever forms.
        clamped = trained_predictor.estimate(Query(origin, dest,
                                                   horizon + 9999))
        edge = trained_predictor.estimate(Query(origin, dest,
                                                horizon - 1.0))
        assert clamped == edge

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf"), -1.0])
    def test_non_finite_or_negative_rejected(self, bad,
                                             trained_predictor,
                                             serving_dataset):
        origin, dest, _ = sample_tuples(serving_dataset, 1)[0]
        with pytest.raises(ValueError, match="depart_time"):
            Query(origin, dest, bad)
        with pytest.raises(ValueError):
            trained_predictor.match_query(origin, dest, bad)

    def test_service_clamps_like_predictor(self, trained_predictor,
                                           serving_dataset):
        service = TravelTimeService(trained_predictor)
        origin, dest, _ = sample_tuples(serving_dataset, 1)[0]
        horizon = serving_dataset.horizon_seconds
        over = service.query(Query(origin, dest, horizon + 9999))
        edge = service.query(Query(origin, dest, horizon - 1.0))
        assert over.seconds == pytest.approx(edge.seconds)

    def test_normalize_depart_time_direct(self):
        from repro.core.predictor import normalize_depart_time
        assert normalize_depart_time(10.0, 100.0) == 10.0
        assert normalize_depart_time(500.0, 100.0) == 99.0
        with pytest.raises(ValueError):
            normalize_depart_time(math.nan, 100.0)
        with pytest.raises(ValueError):
            normalize_depart_time(-0.5, 100.0)


class TestTracedHTTP:
    def test_threaded_requests_trace_one_root_each(self, trained_predictor,
                                                   serving_dataset):
        tracer = Tracer()
        # Batcher left stopped: each HTTP handler thread answers inline,
        # exercising span roots across server worker threads.
        service = TravelTimeService(trained_predictor, tracer=tracer)
        server = ServingHTTPServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        port = server.server_address[1]
        url = f"http://127.0.0.1:{port}/estimate"
        tuples = sample_tuples(serving_dataset, 4)
        clients, errors = [], []

        def hit(origin, dest, t):
            body = json.dumps({"origin": list(origin),
                               "destination": list(dest),
                               "depart_time": t}).encode()
            request = urllib.request.Request(
                url, data=body,
                headers={"Content-Type": "application/json"})
            try:
                with urllib.request.urlopen(request,
                                            timeout=10) as reply:
                    json.loads(reply.read())
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        try:
            for origin, dest, t in tuples * 2:
                client = threading.Thread(target=hit,
                                          args=(origin, dest, t))
                client.start()
                clients.append(client)
            for client in clients:
                client.join(timeout=10)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

        assert not errors
        payload = validate_trace(tracer.to_dict())
        roots = payload["spans"]
        assert len(roots) == len(clients)
        assert {r["name"] for r in roots} == {"serve.request"}
        assert sum(r["attrs"]["queries"] for r in roots) == len(clients)
        # Concurrent handler threads each build their own tree.
        assert len({r["thread"] for r in roots}) > 1
        for root in roots:
            names = [c["name"] for c in root["children"]]
            assert names[0] == "serve.match"
            assert names[-1] == "serve.predict"
