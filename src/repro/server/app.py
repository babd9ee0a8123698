"""The server: the ``/v1`` API over ``ThreadingHTTPServer``.

The HTTP surface is defined once, declaratively, in
:mod:`repro.server.routes`; this module binds it to the stdlib
threading transport and holds the serving state (sessions, request
counters, the write lock, the metrics document).  Per route (all
JSON; POST bodies are JSON documents):

==============================  =======================================
``GET  /``                      the HTML client page
``GET  /metrics``               Prometheus text exposition (unversioned)
``GET  /v1/algorithms``         registered CS/CD algorithm names
``GET  /v1/graphs``             uploaded graph names + sizes
``GET  /v1/graphs/{name}``      one graph + its index state (404
                                ``graph_not_found`` otherwise)
``POST /v1/upload``             ``{"path", "name"}`` -> load a graph file
``POST /v1/options``            ``{"vertex"}`` -> degree choices + keywords
``POST /v1/search``             ``{"vertex", "k", "algorithm", "keywords"}``
``POST /v1/detect``             ``{"algorithm", "params"}``
``POST /v1/display``            search params + ``"community"`` index
``POST /v1/profile``            ``{"vertex"}`` -> Figure 2 profile card
``POST /v1/compare``            ``{"vertex", "k", "methods"}`` -> Figure 6
``POST /v1/suggest``            ``{"prefix", "limit"}`` -> autocompletion
``GET  /v1/stats``              whole-graph statistics
``POST /v1/history``            ``{"session": id}`` -> the query trail
``GET  /v1/metrics``            operational metrics (JSON)
``GET  /v1/traces``             recent query traces (``?limit=N``)
``GET  /v1/traces/{query_id}``  one full trace: that query's span tree
==============================  =======================================

Every ``/v1`` response wears the uniform envelope ``{"ok", "data",
"error"}`` (plus ``"trace"`` when the request was traced); errors
carry stable machine-readable codes (``engine_saturated``,
``deadline_exceeded``, ``graph_not_found``, ...) -- see
``docs/API.md`` for the full contract, which
``scripts/check_api_schema.py`` validates against a live server in CI.

The server is threaded, but algorithm work does not run on handler
threads: searches, detections and comparisons are submitted to the
explorer's :class:`~repro.engine.executor.QueryEngine` -- a bounded
worker pool with an admission-controlled queue -- and the handler
thread only waits.  A full queue rejects immediately with **429**
``engine_saturated``; a query exceeding the server deadline returns
**504** ``deadline_exceeded``.  Cache hits short-circuit the queue
entirely, and concurrent identical cache misses share one execution
(the engine's single-flight dedup).  A request body over
:data:`MAX_BODY_BYTES` is refused with **413** ``payload_too_large``
before it is read.
"""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.explorer.cexplorer import CExplorer
from repro.explorer.sessions import SessionStore
from repro.server.routes import (
    ApiError,
    Raw,
    Request,
    Response,
    UNKNOWN_ROUTE,
    match_route,
    not_found_error,
    parse_json_body,
    parse_query_string,
    render_error,
    render_success,
)

# The largest request body the server reads.
MAX_BODY_BYTES = 64 * 1024 * 1024


class CExplorerServer(ThreadingHTTPServer):
    """ThreadingHTTPServer plus the serving state around a CExplorer:
    ``explorer``, ``engine``, ``sessions``, ``request_counts``, ..."""

    daemon_threads = True
    # The listen backlog (the stdlib default is 5): a burst of
    # concurrent clients queues in the kernel instead of having its
    # connections dropped into a one-second SYN retry.
    request_queue_size = 64

    def __init__(self, address, explorer, query_timeout=30.0):
        self.explorer = explorer
        self.engine = explorer.engine
        self.query_timeout = query_timeout
        self.sessions = SessionStore()
        self.started_at = time.time()
        self.request_counts = {}
        self.error_count = 0
        self.metrics_lock = threading.Lock()
        # The upload endpoint mutates the explorer; serialise writers.
        self.write_lock = threading.Lock()
        super().__init__(address, _Handler)

    def count_request(self, template):
        """Count one request under its **route template** (e.g.
        ``/v1/traces/{query_id}``), never the raw path -- the raw
        path embeds client-chosen ids, and counting those grew
        ``request_counts`` without bound (one bucket per trace id)."""
        with self.metrics_lock:
            self.request_counts[template] = \
                self.request_counts.get(template, 0) + 1

    def count_error(self):
        """Count one request answered with an error status."""
        with self.metrics_lock:
            self.error_count += 1

    def metrics(self):
        """The ``/v1/metrics`` document.

        ``cache.invalidations_by_reason`` breaks evictions down into
        ``core-cascade`` / ``truss-cascade`` (footprint-scoped,
        reported by the attached maintainers) vs ``evict-all`` (the
        conservative fallback); ``truss_invalidations`` and
        ``truss_cascade_size`` summarise the truss maintenance
        subsystem.
        """
        with self.metrics_lock:
            requests = dict(self.request_counts)
            errors = self.error_count
        cache = self.explorer.cache.stats()
        cache["by_graph"] = self.explorer.cache.entries_by_graph()
        truss = self.explorer.indexes.truss_stats()
        return {
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "requests": requests,
            "errors": errors,
            "sessions": len(self.sessions),
            "cache": cache,
            "truss_invalidations":
                cache["invalidations_by_reason"]["truss-cascade"],
            "truss_cascade_size": {
                "last": truss["last_cascade_size"],
                "max": truss["max_cascade_size"],
                "total": truss["changed_edges"],
                "updates": truss["updates"],
            },
            "engine": self.engine.snapshot(),
        }


def make_server(explorer=None, host="127.0.0.1", port=8080,
                query_timeout=30.0):
    """Create (not start) a :class:`CExplorerServer`.

    ``port=0`` picks a free port; read it back from
    ``server.server_address``.  Worker-pool sizing belongs to the
    explorer (``CExplorer(workers=..., max_queue=...)``).
    """
    if explorer is None:
        explorer = CExplorer()
    return CExplorerServer((host, port), explorer,
                           query_timeout=query_timeout)


class _Handler(BaseHTTPRequestHandler):
    """Binds the route table to the threading transport."""

    # Silence per-request logging; the demo prints its own status line.
    def log_message(self, fmt, *args):
        pass

    def _send(self, status, body, content_type="application/json"):
        body = (body if isinstance(body, bytes)
                else json.dumps(body).encode("utf-8"))
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self):
        """The request body, refusing a malformed or oversized
        ``Content-Length`` before reading anything."""
        declared = (self.headers.get("Content-Length") or "").strip()
        if not declared:
            return b""
        if not (declared.isascii() and declared.isdigit()):
            raise ApiError("bad_request",
                           "Content-Length must be a non-negative "
                           "integer")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise ApiError("payload_too_large",
                           "request body of {} bytes exceeds the {} "
                           "byte limit".format(length, MAX_BODY_BYTES))
        return self.rfile.read(length) if length else b""

    def _dispatch(self, method):
        server = self.server
        path, query = parse_query_string(self.path)
        matched = match_route(method, path)
        if matched is None:
            server.count_request(UNKNOWN_ROUTE)
            server.count_error()
            self._send(*render_error(not_found_error(path)))
            return
        route, params = matched
        server.count_request(route.template)
        try:
            body = {}
            if method == "POST":
                body = parse_json_body(self._read_body())
            request = Request(method, path, params=params, query=query,
                              body=body)
            outcome = route.handler(server, request)
            if isinstance(outcome, Raw):
                self._send(200, outcome.body,
                           content_type=outcome.content_type)
                return
            response = (outcome if isinstance(outcome, Response)
                        else Response(outcome))
            self._send(200, render_success(response))
        except Exception as exc:  # defensive: never kill the connection
            server.count_error()
            self._send(*render_error(exc))

    def do_GET(self):
        self._dispatch("GET")

    def do_POST(self):
        self._dispatch("POST")
