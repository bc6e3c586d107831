"""Stdlib-only front-ends for :class:`TravelTimeService`.

Two transports, zero dependencies beyond the standard library:

* **HTTP** (``serve_http``) — a ``ThreadingHTTPServer`` exposing

  - ``POST /estimate``        one query  ``{"origin": [x, y],
    "destination": [x, y], "depart_time": t}``
  - ``POST /estimate_batch``  ``{"queries": [query, ...]}``
  - ``GET  /metrics``         the service's JSON metrics snapshot
  - ``GET  /healthz``         liveness + degraded flag (plus per-shard
    detail when the backend is a :class:`ServingCluster`)

  Single-query POSTs go through the micro-batcher, so concurrent
  request threads coalesce into vectorised model calls.  The backend is
  duck-typed: anything exposing ``answer`` / ``query_batch`` /
  ``metrics_snapshot`` / ``degraded`` serves — the single-process
  :class:`TravelTimeService` and the sharded
  :class:`~repro.serving.cluster.ServingCluster` interchangeably.

  Capacity errors are first-class: a saturated admission queue
  (:class:`SaturatedError`) or an artifact reload caught mid-swap
  (:class:`ArtifactError`) answers **503** with a JSON error body and a
  ``Retry-After`` header instead of a socket reset, so callers can
  back off and retry rather than treating shed load as an outage.

* **JSON lines** (``run_jsonl_loop``) — one query object per input
  line, one response object per output line; ``{"cmd": "metrics"}``
  returns the snapshot.  This is the pipe-friendly mode used by
  ``python -m repro.cli serve --stdin`` and by the end-to-end tests.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import IO, Optional, Tuple

from ..trajectory.model import Query
from .artifact import ArtifactError
from .errors import ServiceUnavailable
from .service import TravelTimeService


def parse_query(payload: dict) -> Query:
    """Validate a JSON query object into a typed :class:`Query`.

    Raises ``ValueError`` naming the bad field, including a non-finite
    or negative ``depart_time`` (``json.loads`` accepts ``NaN`` and
    ``Infinity``), so the front-ends answer it as a client error.
    """
    try:
        origin = payload["origin"]
        destination = payload["destination"]
        depart = payload["depart_time"]
    except (KeyError, TypeError):
        raise ValueError(
            "query must have 'origin', 'destination', 'depart_time'")
    return Query(origin_xy=origin, destination_xy=destination,
                 depart_time=depart)


# ---------------------------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    """Request handler bound to ``server.service``."""

    server_version = "repro-serving/1.0"

    @property
    def service(self) -> TravelTimeService:
        return self.server.service    # type: ignore[attr-defined]

    # -- plumbing --------------------------------------------------------
    def _send_json(self, status: int, payload: dict,
                   retry_after_s: Optional[float] = None) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after_s is not None:
            # Retry-After is integer seconds; round up so "0.004s" does
            # not tell clients to hammer back immediately.
            self.send_header("Retry-After",
                             str(max(1, int(-(-retry_after_s // 1)))))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length", "0"))
        if length <= 0:
            raise ValueError("empty request body")
        return json.loads(self.rfile.read(length))

    def log_message(self, fmt, *args):   # quiet by default
        if getattr(self.server, "verbose", False):
            super().log_message(fmt, *args)

    # -- routes ----------------------------------------------------------
    def do_GET(self):
        if self.path == "/healthz":
            health = {"status": "ok", "degraded": self.service.degraded}
            snapshot = getattr(self.service, "health_snapshot", None)
            if snapshot is not None:    # cluster backend: shard detail
                health.update(snapshot())
                if health["degraded"]:
                    health["status"] = "degraded"
            self._send_json(200, health)
        elif self.path == "/metrics":
            self._send_json(200, self.service.metrics_snapshot())
        else:
            self._send_json(404, {"error": f"no route {self.path}"})

    def do_POST(self):
        try:
            payload = self._read_json()
        except (ValueError, json.JSONDecodeError) as exc:
            self._send_json(400, {"error": f"bad JSON body: {exc}"})
            return
        try:
            if self.path == "/estimate":
                query = parse_query(payload)
                response = self.service.answer(query)
                self._send_json(200, response.to_dict())
            elif self.path == "/estimate_batch":
                queries = [parse_query(q)
                           for q in payload.get("queries", [])]
                responses = self.service.query_batch(queries)
                self._send_json(200, {"responses": [r.to_dict()
                                                    for r in responses]})
            else:
                self._send_json(404, {"error": f"no route {self.path}"})
        except ValueError as exc:
            self._send_json(400, {"error": str(exc)})
        except ServiceUnavailable as exc:
            self._send_json(503, {"error": str(exc), "saturated": True},
                            retry_after_s=exc.retry_after_s)
        except ArtifactError as exc:
            self._send_json(503, {"error": f"artifact mid-swap: {exc}",
                                  "saturated": False},
                            retry_after_s=0.5)
        except Exception as exc:    # never kill the connection thread
            self._send_json(500, {"error": f"internal error: {exc}"})


class ServingHTTPServer(ThreadingHTTPServer):
    """HTTP server owning a :class:`TravelTimeService`."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int],
                 service: TravelTimeService, verbose: bool = False):
        super().__init__(address, _Handler)
        self.service = service
        self.verbose = verbose


def serve_http(service: TravelTimeService, host: str = "127.0.0.1",
               port: int = 8321, verbose: bool = False) -> None:
    """Run the HTTP front-end until interrupted (blocking)."""
    service.start()
    server = ServingHTTPServer((host, port), service, verbose=verbose)
    try:
        print(f"serving on http://{host}:{server.server_address[1]} "
              f"(degraded={service.degraded})")
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.stop()


# ---------------------------------------------------------------------------
def run_jsonl_loop(service: TravelTimeService, in_stream: IO[str],
                   out_stream: IO[str],
                   max_queries: Optional[int] = None) -> int:
    """Answer JSON-lines queries from ``in_stream`` onto ``out_stream``.

    Returns the number of queries answered.  Malformed lines produce an
    ``{"error": ...}`` line instead of aborting the loop.
    """
    answered = 0
    for line in in_stream:
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            print(json.dumps({"error": f"bad JSON: {exc}"}),
                  file=out_stream, flush=True)
            continue
        if isinstance(payload, dict) and payload.get("cmd") == "metrics":
            print(json.dumps(service.metrics_snapshot()),
                  file=out_stream, flush=True)
            continue
        try:
            query = parse_query(payload)
            response = service.query(query)
        except ValueError as exc:
            print(json.dumps({"error": str(exc)}),
                  file=out_stream, flush=True)
            continue
        print(json.dumps(response.to_dict()), file=out_stream, flush=True)
        answered += 1
        if max_queries is not None and answered >= max_queries:
            break
    return answered
