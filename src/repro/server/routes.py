"""The versioned HTTP API: one declarative route table.

This module defines the serving surface the threaded server
(:mod:`repro.server.app`) binds to its transport:

* a declarative :data:`ROUTES` table -- method + path template
  (``/v1/traces/{query_id}``) + handler;
* a uniform **response envelope** on every ``/v1`` route::

      {"ok": true,  "data": ...,  "error": null}            # success
      {"ok": false, "data": null,
       "error": {"code": "...", "message": "..."}}          # failure

  plus ``"trace": <query id>`` at the top level when the request was
  traced, and ``"retry": true`` inside ``error`` when the client
  should back off and retry (``engine_saturated``);
* stable machine-readable **error codes** (:data:`ERROR_CODES`)
  instead of mixed 4xx bodies -- ``graph_not_found``,
  ``engine_saturated``, ``deadline_exceeded``, ... -- each with a
  fixed HTTP status, documented in ``docs/API.md`` and validated
  against a live server by ``scripts/check_api_schema.py``.

Handlers take ``(server, request)`` -- the
:class:`~repro.server.app.CExplorerServer` plus a parsed
:class:`Request` -- and return plain data, a :class:`Response`, or a
:class:`Raw` byte body.  Handlers that run engine work block on the
engine's future with the server deadline.
"""

import json
import time
from urllib.parse import parse_qs

from repro.engine.tracing import render_prometheus
from repro.server.html import INDEX_HTML
from repro.util.errors import (
    CExplorerError,
    EngineBusyError,
    QueryCancelledError,
    QueryError,
    QueryTimeoutError,
    UnknownAlgorithmError,
    UnknownVertexError,
)
from repro.viz.render import render_svg

API_VERSION = "v1"

# The request-counter bucket for paths matching no route: one constant
# key, so probe traffic (or a client fat-fingering trace ids) cannot
# grow ``request_counts`` without bound.
UNKNOWN_ROUTE = "(unknown)"

# code -> (HTTP status, human description).  The contract surface:
# docs/API.md documents these and scripts/check_api_schema.py checks a
# live server only ever emits codes from this table with the status
# registered here.
ERROR_CODES = {
    "bad_request": (400, "the request was malformed or referenced "
                         "unknown state"),
    "invalid_json": (400, "the request body was not a JSON object"),
    "missing_field": (400, "a required request field was absent"),
    "invalid_parameter": (400, "a request field had the wrong type or "
                               "an out-of-range value"),
    "invalid_query": (400, "the query referenced an unknown vertex or "
                           "had invalid parameters"),
    "unknown_algorithm": (400, "the algorithm name is not registered"),
    "not_found": (404, "no route matches the requested path"),
    "graph_not_found": (404, "no graph is registered under that name"),
    "trace_not_found": (404, "the trace id is not in the ring buffer"),
    "session_not_found": (404, "the session id is unknown"),
    "payload_too_large": (413, "the request body exceeds the size "
                               "limit"),
    "engine_saturated": (429, "admission control rejected the query; "
                              "back off and retry"),
    "not_ready": (503, "the server is not ready to accept queries; "
                       "retry after a backoff"),
    "cancelled": (503, "the query was cancelled before it ran"),
    "deadline_exceeded": (504, "the query missed the server deadline"),
    "internal": (500, "unexpected server-side failure"),
}


class ApiError(CExplorerError):
    """An error with a stable wire code."""

    def __init__(self, code, message):
        super().__init__(message)
        if code not in ERROR_CODES:
            raise ValueError("unregistered error code {!r}".format(code))
        self.code = code
        self.status = ERROR_CODES[code][0]


def translate_error(exc):
    """Map any exception to ``(status, code, message, retry)`` -- the
    one place wire semantics are assigned."""
    if isinstance(exc, ApiError):
        return exc.status, exc.code, str(exc), False
    if isinstance(exc, EngineBusyError):
        return 429, "engine_saturated", str(exc), True
    if isinstance(exc, QueryTimeoutError):
        return 504, "deadline_exceeded", str(exc), False
    if isinstance(exc, QueryCancelledError):
        return 503, "cancelled", str(exc), False
    if isinstance(exc, UnknownAlgorithmError):
        return 400, "unknown_algorithm", str(exc), False
    if isinstance(exc, (QueryError, UnknownVertexError)):
        return 400, "invalid_query", str(exc), False
    if isinstance(exc, CExplorerError):
        return 400, "bad_request", str(exc), False
    return 500, "internal", "internal error: {}".format(exc), False


# ----------------------------------------------------------------------
# request / response shapes
# ----------------------------------------------------------------------

class Request:
    """One parsed HTTP request, transport-independent."""

    __slots__ = ("method", "path", "params", "query", "body")

    def __init__(self, method, path, params=None, query=None, body=None):
        self.method = method
        self.path = path
        self.params = params or {}
        self.query = query or {}
        self.body = body if body is not None else {}

    def int_query(self, key, default):
        """An integer query-string parameter, or ``default`` when
        absent or malformed."""
        values = self.query.get(key)
        if not values:
            return default
        try:
            return int(values[0])
        except ValueError:
            return default


class Response:
    """A handler's success payload plus its optional trace id."""

    __slots__ = ("data", "trace")

    def __init__(self, data, trace=None):
        self.data = data
        self.trace = trace


class Raw:
    """A non-JSON response body (the HTML page, Prometheus text)."""

    __slots__ = ("body", "content_type")

    def __init__(self, body, content_type):
        self.body = body
        self.content_type = content_type


# ----------------------------------------------------------------------
# body / parameter helpers
# ----------------------------------------------------------------------

def parse_json_body(raw):
    """Decode a request body into a JSON object (``{}`` when empty)."""
    if not raw:
        return {}
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise ApiError("invalid_json",
                       "request body is not valid JSON") from None
    if not isinstance(doc, dict):
        raise ApiError("invalid_json",
                       "request body must be a JSON object")
    return doc


def parse_query_string(path_and_query):
    """Split a request target into ``(path, query dict)``; the path is
    normalised (trailing slash stripped, bare ``/`` preserved)."""
    if "?" in path_and_query:
        path, _, raw = path_and_query.partition("?")
        query = parse_qs(raw)
    else:
        path, query = path_and_query, {}
    return path.rstrip("/") or "/", query


def need(body, key):
    """A required request field."""
    value = body.get(key)
    if value is None:
        raise ApiError("missing_field",
                       "missing required field {!r}".format(key))
    return value


def as_int(value, name, default=None):
    """Coerce one request field to ``int`` with a typed error."""
    if value is None:
        return default
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ApiError("invalid_parameter",
                       "{!r} must be an integer".format(name)) from None


# ----------------------------------------------------------------------
# handlers
# ----------------------------------------------------------------------

def _graph_doc(explorer, name):
    graph = explorer.indexes.graph(name)
    return {"name": name, "vertices": graph.vertex_count,
            "edges": graph.edge_count}


def h_index_page(server, req):
    return Raw(INDEX_HTML.encode("utf-8"), "text/html; charset=utf-8")


def h_prometheus(server, req):
    text = render_prometheus(server.metrics())
    return Raw(text.encode("utf-8"),
               "text/plain; version=0.0.4; charset=utf-8")


def h_algorithms(server, req):
    return server.explorer.available_algorithms()


def h_graphs(server, req):
    explorer = server.explorer
    return {"graphs": [_graph_doc(explorer, name)
                       for name in explorer.graph_names()]}


def h_graph(server, req):
    explorer = server.explorer
    name = req.params["name"]
    if name not in explorer.graph_names():
        raise ApiError("graph_not_found",
                       "no graph named {!r} uploaded".format(name))
    doc = _graph_doc(explorer, name)
    doc["index"] = explorer.indexes.stats(name)
    return doc


def h_stats(server, req):
    return server.explorer.summary()


def h_metrics(server, req):
    return server.metrics()


def h_health(server, req):
    """Liveness: answers 200 whenever the process can serve at all.

    ``degraded`` flags an open/half-open backend breaker -- the
    server is still alive (queries run on a fallback substrate), but
    an operator dashboard should notice.
    """
    resilience = server.engine.resilience
    return {
        "status": "ok",
        "uptime_seconds": round(time.time() - server.started_at, 3),
        "backend": server.engine.backend,
        "degraded": bool(resilience.snapshot()["degraded"]),
    }


def h_ready(server, req):
    """Readiness: 200 only when a query submitted right now would be
    admitted; 503 ``not_ready`` when the engine is shut down or the
    admission queue is at its ceiling (a load balancer should route
    elsewhere and retry)."""
    engine = server.engine
    if not engine.accepting:
        raise ApiError("not_ready",
                       "engine is not accepting queries "
                       "(queue {}/{})".format(engine.queue_depth,
                                              engine.max_queue))
    return {
        "ready": True,
        "queue_depth": engine.queue_depth,
        "max_queue": engine.max_queue,
    }


def h_traces(server, req):
    tracer = server.engine.tracer
    limit = req.int_query("limit", 50)
    return {
        "traces": [t.summary() for t in tracer.traces(limit=limit)],
        "slow": [t.summary()
                 for t in tracer.traces(limit=limit, slow=True)],
        "stats": tracer.stats(),
    }


def h_trace(server, req):
    query_id = req.params["query_id"]
    trace = server.engine.tracer.get(query_id)
    if trace is None:
        raise ApiError("trace_not_found",
                       "no trace {!r} in the ring buffer"
                       .format(query_id))
    return trace.to_dict()


def h_upload(server, req):
    body = req.body
    path = body.get("path")
    if not path:
        raise ApiError("missing_field", "upload needs a 'path'")
    explorer = server.explorer
    try:
        with server.write_lock:
            name = explorer.upload(path, name=body.get("name"))
    except OSError as exc:
        # A client-supplied path the server cannot read is the
        # client's error, not an internal one.
        raise ApiError("bad_request",
                       "cannot read graph file: {}".format(exc)) \
            from None
    return _graph_doc(explorer, name)


def h_options(server, req):
    return server.explorer.query_options(need(req.body, "vertex"))


def _search(server, req):
    """Run the request's search; returns ``(communities, query)``.

    The shared front half of ``search`` and ``display``: parse, run
    through the engine's cache + single-flight path, wait with the
    server deadline, and build the query echo document.  The
    request-level span and trace id are attached here, identically
    for both routes.
    """
    body = req.body
    vertex = need(body, "vertex")
    k = as_int(body.get("k", 4), "k")
    algorithm = body.get("algorithm", "acq")
    keywords = body.get("keywords")
    started = time.time()
    start = time.perf_counter()
    future = server.engine.search(algorithm, vertex, k=k,
                                  keywords=keywords,
                                  timeout=server.query_timeout)
    communities = server.engine.wait(future, server.query_timeout)
    query = {"vertex": vertex, "k": k, "algorithm": algorithm,
             "keywords": keywords}
    trace = future.trace
    if trace is not None:
        # End-to-end as the handler saw it: a top-level sibling of
        # the engine's own spans, so queue + execute + the request
        # envelope stay separable in the waterfall.
        trace.add_span("request", time.perf_counter() - start,
                       start=started, parent=None,
                       tags={"path": req.path})
        query["trace"] = trace.query_id
    return communities, query


def h_search(server, req):
    communities, query = _search(server, req)
    session_id = req.body.get("session")
    if session_id:
        session = server.sessions.get(str(session_id))
    else:
        session = server.sessions.create()
    session.record(query["algorithm"], str(query["vertex"]),
                   query["k"], len(communities),
                   keywords=query["keywords"])
    return Response({
        "session": session.session_id,
        "query": query,
        "communities": [c.to_dict() for c in communities],
    }, trace=query.get("trace"))


def h_display(server, req):
    body = req.body
    communities, query = _search(server, req)
    idx = as_int(body.get("community", 0), "community")
    if not 0 <= idx < len(communities):
        raise ApiError("invalid_parameter",
                       "community index {} out of range (have {})"
                       .format(idx, len(communities)))
    community = communities[idx]
    layout = server.explorer.display(
        community, fmt="positions", layout=body.get("layout", "ego"))
    svg = render_svg(community, layout=layout)
    from repro.analysis.themes import theme_of
    return Response({
        "query": query,
        "community": community.to_dict(),
        "theme": theme_of(community),
        "positions": {str(v): [round(x, 4), round(y, 4)]
                      for v, (x, y) in layout.items()},
        "svg": svg,
    }, trace=query.get("trace"))


def h_detect(server, req):
    body = req.body
    algorithm = body.get("algorithm", "codicil")
    params = body.get("params") or {}
    communities = server.engine.execute(
        server.explorer.detect, algorithm, op="detect",
        timeout=server.query_timeout, **params)
    return {
        "algorithm": algorithm,
        "count": len(communities),
        "communities": [c.to_dict() for c in communities[:50]],
    }


def h_profile(server, req):
    return server.explorer.profile(need(req.body, "vertex")).to_dict()


def h_compare(server, req):
    body = req.body
    vertex = need(body, "vertex")
    k = as_int(body.get("k", 4), "k")
    methods = body.get("methods") or ("global", "local", "codicil",
                                     "acq")
    report = server.engine.execute(
        server.explorer.compare, vertex, k=k, methods=tuple(methods),
        keywords=body.get("keywords"), op="compare",
        timeout=server.query_timeout)
    doc = report.to_dict()
    if body.get("charts", True):
        from repro.viz.charts import render_quality_charts
        doc["charts"] = render_quality_charts(report)
    return doc


def h_suggest(server, req):
    body = req.body
    prefix = str(body.get("prefix", ""))
    limit = as_int(body.get("limit", 10), "limit")
    return {
        "prefix": prefix,
        "names": server.explorer.suggest_names(prefix, limit=limit),
    }


def h_history(server, req):
    body = req.body
    session_id = str(need(body, "session"))
    session = server.sessions.get(session_id, create_missing=False)
    if session is None:
        raise ApiError("session_not_found",
                       "unknown session {!r}".format(session_id))
    return {
        "session": session_id,
        "history": session.history(limit=body.get("limit")),
    }


# ----------------------------------------------------------------------
# the route table
# ----------------------------------------------------------------------

class Route:
    """One registered route: a method + path template + handler.

    ``template`` segments of the form ``{name}`` capture one path
    segment into ``request.params``.  The template doubles as the
    request-counter key, so parameterised paths aggregate under one
    stable bucket instead of one bucket per id.
    """

    __slots__ = ("method", "template", "handler", "segments")

    def __init__(self, method, template, handler):
        self.method = method
        self.template = template
        self.handler = handler
        self.segments = tuple(template.strip("/").split("/")) \
            if template != "/" else ()

    def match(self, method, segments):
        """``request.params`` when this route matches, else ``None``."""
        if method != self.method or len(segments) != len(self.segments):
            return None
        params = {}
        for pattern, value in zip(self.segments, segments):
            if pattern.startswith("{") and pattern.endswith("}"):
                params[pattern[1:-1]] = value
            elif pattern != value:
                return None
        return params


ROUTES = (
    Route("GET", "/", h_index_page),
    Route("GET", "/metrics", h_prometheus),
    Route("GET", "/v1/algorithms", h_algorithms),
    Route("GET", "/v1/graphs", h_graphs),
    Route("GET", "/v1/graphs/{name}", h_graph),
    Route("GET", "/v1/stats", h_stats),
    Route("GET", "/v1/metrics", h_metrics),
    Route("GET", "/v1/health", h_health),
    Route("GET", "/v1/ready", h_ready),
    Route("GET", "/v1/traces", h_traces),
    Route("GET", "/v1/traces/{query_id}", h_trace),
    Route("POST", "/v1/upload", h_upload),
    Route("POST", "/v1/options", h_options),
    Route("POST", "/v1/search", h_search),
    Route("POST", "/v1/detect", h_detect),
    Route("POST", "/v1/display", h_display),
    Route("POST", "/v1/profile", h_profile),
    Route("POST", "/v1/compare", h_compare),
    Route("POST", "/v1/suggest", h_suggest),
    Route("POST", "/v1/history", h_history),
)


def v1_routes():
    """The ``/v1`` contract surface (what docs/API.md documents)."""
    return [r for r in ROUTES if r.template.startswith("/v1/")]


def match_route(method, path):
    """``(route, params)`` for the first matching route, or ``None``."""
    segments = tuple(path.strip("/").split("/")) if path != "/" else ()
    for route in ROUTES:
        params = route.match(method, segments)
        if params is not None:
            return route, params
    return None


# ----------------------------------------------------------------------
# response rendering
# ----------------------------------------------------------------------

def render_success(response):
    """The success envelope for a :class:`Response`."""
    doc = {"ok": True, "data": response.data, "error": None}
    if response.trace is not None:
        doc["trace"] = response.trace
    return doc


def render_error(exc):
    """``(status, envelope)`` for any exception."""
    status, code, message, retry = translate_error(exc)
    error = {"code": code, "message": message}
    if retry:
        error["retry"] = True
    return status, {"ok": False, "data": None, "error": error}


def not_found_error(path):
    """The unmatched-path error."""
    return ApiError("not_found", "no such endpoint: " + path)
