"""The ``/v1`` API contract: envelope, error codes, single-flight.

Covers what ``tests/test_server.py`` (the per-route behaviour) does
not:

* every ``/v1`` response wears the uniform envelope with a stable
  machine-readable error code from the registered table;
* the hard-to-reach codes -- ``engine_saturated`` from a wedged
  engine (a fast 429, not a hung socket) and ``deadline_exceeded``
  from a tiny server deadline;
* malformed and oversized ``Content-Length`` headers, over raw
  sockets;
* the retired ``/api/*`` paths answer 404 ``not_found``;
* request counters bucket by route template, never by raw path;
* concurrent identical cache misses share one execution.
"""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.explorer.cexplorer import CExplorer
from repro.server.app import make_server
from repro.server.routes import ERROR_CODES, translate_error
from repro.util.errors import QueryCancelledError


def _graph():
    from repro.datasets import DblpConfig, generate_dblp_graph
    return generate_dblp_graph(
        DblpConfig(n_authors=400, n_communities=8, seed=13))


@pytest.fixture(scope="module")
def sync_server():
    explorer = CExplorer()
    explorer.add_graph("dblp", _graph())
    srv = make_server(explorer, port=0)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    yield srv
    srv.shutdown()


def _url(server, path):
    return "http://127.0.0.1:{}{}".format(server.server_address[1],
                                          path)


def _fetch(request):
    try:
        with urllib.request.urlopen(request) as resp:
            return resp.status, dict(resp.headers), \
                json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), json.loads(err.read())


def _get(server, path):
    return _fetch(urllib.request.Request(_url(server, path)))


def _post(server, path, doc=None, raw=None):
    body = raw if raw is not None else json.dumps(doc or {}).encode()
    return _fetch(urllib.request.Request(
        _url(server, path), data=body,
        headers={"Content-Type": "application/json"}))


def _assert_envelope(status, doc):
    assert set(doc) <= {"ok", "data", "error", "trace"}
    assert isinstance(doc["ok"], bool)
    if doc["ok"]:
        assert status == 200 and doc["error"] is None
    else:
        assert status != 200 and doc["data"] is None
        error = doc["error"]
        assert error["code"] in ERROR_CODES
        assert ERROR_CODES[error["code"]][0] == status
        assert error["message"]


@pytest.fixture(params=["sync_server"])
def server(request):
    return request.getfixturevalue(request.param)


class TestEnvelope:
    def test_success_envelope_on_get_routes(self, server):
        for path in ("/v1/algorithms", "/v1/graphs",
                     "/v1/graphs/dblp", "/v1/metrics", "/v1/traces"):
            status, _, doc = _get(server, path)
            _assert_envelope(status, doc)
            assert doc["ok"], path

    def test_search_success_with_trace(self, server):
        status, _, doc = _post(server, "/v1/search",
                               {"vertex": "jim gray", "k": 3})
        _assert_envelope(status, doc)
        data = doc["data"]
        assert data["query"]["k"] == 3
        assert data["communities"]
        # Traced queries surface the id both in the envelope and the
        # query echo; the trace must be fetchable.
        assert doc.get("trace") == data["query"]["trace"]
        status, _, tdoc = _get(server,
                               "/v1/traces/{}".format(doc["trace"]))
        _assert_envelope(status, tdoc)
        assert tdoc["data"]["query_id"] == doc["trace"]

    def test_graph_detail(self, server):
        status, _, doc = _get(server, "/v1/graphs/dblp")
        assert doc["data"]["vertices"] == 400
        assert "index" in doc["data"]


class TestErrorCodes:
    """Every client-reachable code, each with its frozen status."""

    CASES = [
        ("not_found", "GET", "/v1/nowhere", None, None),
        ("graph_not_found", "GET", "/v1/graphs/missing", None, None),
        ("trace_not_found", "GET", "/v1/traces/zz-none", None, None),
        ("session_not_found", "POST", "/v1/history",
         {"session": "ghost"}, None),
        ("missing_field", "POST", "/v1/search", {"k": 3}, None),
        ("invalid_parameter", "POST", "/v1/search",
         {"vertex": "jim gray", "k": "many"}, None),
        ("unknown_algorithm", "POST", "/v1/search",
         {"vertex": "jim gray", "algorithm": "nope"}, None),
        ("invalid_query", "POST", "/v1/search",
         {"vertex": "nobody at all"}, None),
        ("invalid_json", "POST", "/v1/search", None, b"{nope"),
        ("bad_request", "POST", "/v1/upload",
         {"path": "/no/such/file.txt"}, None),
    ]

    @pytest.mark.parametrize(
        "code,method,path,body,raw",
        CASES, ids=[c[0] for c in CASES])
    def test_code(self, server, code, method, path, body, raw):
        if method == "GET":
            status, _, doc = _get(server, path)
        else:
            status, _, doc = _post(server, path, body, raw=raw)
        _assert_envelope(status, doc)
        assert doc["error"]["code"] == code
        assert status == ERROR_CODES[code][0]

    def test_remaining_codes_via_translation(self):
        # ``cancelled`` and ``internal`` need a racing shutdown or a
        # server bug; pin their wire mapping at the translation seam.
        status, code, _, retry = translate_error(
            QueryCancelledError("cancelled before running"))
        assert (status, code, retry) == (503, "cancelled", False)
        status, code, message, _ = translate_error(
            ZeroDivisionError("boom"))
        assert (status, code) == (500, "internal")
        assert "boom" in message

    def test_all_codes_covered(self):
        exercised = {c[0] for c in self.CASES} | {
            "cancelled", "internal",
            # driven by the dedicated saturation/deadline and
            # Content-Length tests below
            "engine_saturated", "deadline_exceeded",
            "payload_too_large",
            # driven live in tests/test_resilience.py (readiness
            # flips only with a shut-down engine or a full queue)
            "not_ready",
        }
        assert exercised == set(ERROR_CODES)


class TestLegacyShim:
    """The pre-``/v1`` ``/api/*`` shim is retired."""

    def test_v1_routes_not_deprecated(self, server):
        _, headers, _ = _get(server, "/v1/graphs")
        assert "Deprecation" not in headers

    def test_legacy_error_shape(self, server):
        # A retired path is an unknown route: 404 in the envelope,
        # never a bare {"error": msg} body.
        for status, headers, doc in (
                _get(server, "/api/graphs"),
                _post(server, "/api/search",
                      {"vertex": "jim gray", "k": 3})):
            _assert_envelope(status, doc)
            assert status == 404
            assert doc["error"]["code"] == "not_found"
            assert "Deprecation" not in headers


class TestRequestCounting:
    def test_trace_ids_bucket_by_template(self, server):
        _, _, doc = _post(server, "/v1/search",
                          {"vertex": "jim gray", "k": 4})
        for _ in range(2):
            _get(server, "/v1/traces/{}".format(doc["trace"]))
        _, _, metrics = _get(server, "/v1/metrics")
        requests = metrics["data"]["requests"]
        assert requests["/v1/traces/{query_id}"] >= 2
        assert not any(key.startswith("/v1/traces/q")
                       for key in requests)

    def test_unknown_paths_bucket_together(self, server):
        _get(server, "/v1/probe-a")
        _get(server, "/v1/probe-b")
        _, _, metrics = _get(server, "/v1/metrics")
        requests = metrics["data"]["requests"]
        assert requests["(unknown)"] >= 2
        assert "/v1/probe-a" not in requests


def _wedge(engine, seconds):
    """Occupy every worker with a slow job; returns their futures."""
    release = threading.Event()

    def slow():
        release.wait(seconds)

    futures = [engine.submit(slow, op="wedge")
               for _ in range(engine.workers)]
    # Let the workers pick the wedge jobs off the queue before the
    # caller fills it, so queue occupancy is deterministic.
    deadline = time.perf_counter() + 5.0
    while engine.snapshot()["in_flight"] < engine.workers \
            and time.perf_counter() < deadline:
        time.sleep(0.005)
    return release, futures


class TestSaturationAndDeadline:
    """The overload codes: fast rejections, never hung sockets."""

    @pytest.mark.parametrize("kind", ["sync"])
    def test_engine_saturated(self, kind):
        explorer = CExplorer(workers=1, max_queue=1)
        explorer.add_graph("dblp", _graph())
        srv = make_server(explorer, port=0)
        threading.Thread(target=srv.serve_forever, daemon=True).start()
        try:
            release, _ = _wedge(explorer.engine, 30.0)
            # Fill the 1-slot queue behind the wedged worker.
            explorer.engine.submit(lambda: None, op="filler")
            started = time.perf_counter()
            status, _, doc = _post(srv, "/v1/search",
                                   {"vertex": "jim gray", "k": 3})
            elapsed = time.perf_counter() - started
            release.set()
            _assert_envelope(status, doc)
            assert status == 429
            assert doc["error"]["code"] == "engine_saturated"
            assert doc["error"]["retry"] is True
            # The point of admission control: rejection is immediate,
            # not a socket held open until some deadline.
            assert elapsed < 5.0
        finally:
            srv.shutdown()

    def test_deadline_exceeded(self):
        explorer = CExplorer(workers=1, max_queue=8)
        explorer.add_graph("dblp", _graph())
        srv = make_server(explorer, port=0, query_timeout=0.05)
        threading.Thread(target=srv.serve_forever,
                         daemon=True).start()
        try:
            release, _ = _wedge(explorer.engine, 30.0)
            status, _, doc = _post(srv, "/v1/search",
                                   {"vertex": "jim gray", "k": 3})
            release.set()
            _assert_envelope(status, doc)
            assert status == 504
            assert doc["error"]["code"] == "deadline_exceeded"
        finally:
            srv.shutdown()

    def test_batched_saturation_is_not_a_hung_socket(self):
        """Concurrent identical searches against a full queue each
        answer 429 at once: a rejected leader leaves no flight for
        the others to wait on."""
        explorer = CExplorer(workers=1, max_queue=1)
        explorer.add_graph("dblp", _graph())
        srv = make_server(explorer, port=0)
        threading.Thread(target=srv.serve_forever, daemon=True).start()
        try:
            release, _ = _wedge(explorer.engine, 30.0)
            explorer.engine.submit(lambda: None, op="filler")
            results = [None] * 4

            def query(i):
                results[i] = _post(srv, "/v1/search",
                                   {"vertex": "jim gray", "k": 3})

            started = time.perf_counter()
            threads = [threading.Thread(target=query, args=(i,))
                       for i in range(len(results))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            elapsed = time.perf_counter() - started
            release.set()
            for status, _, doc in results:
                assert status == 429
                assert doc["error"]["code"] == "engine_saturated"
            assert elapsed < 5.0
        finally:
            srv.shutdown()


def _raw_request(server, content_length, timeout=3.0):
    """POST /v1/search with a hand-written ``Content-Length`` header
    and no body; ``(status, envelope)`` of the reply."""
    with socket.create_connection(("127.0.0.1",
                                   server.server_address[1]),
                                  timeout=timeout) as sock:
        sock.sendall("POST /v1/search HTTP/1.1\r\n"
                     "Host: localhost\r\n"
                     "Content-Type: application/json\r\n"
                     "Content-Length: {}\r\n\r\n"
                     .format(content_length).encode("ascii"))
        reply = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


class TestContentLength:
    """The handler never trusts ``Content-Length``: a malformed value
    is a 400 and an oversized one a 413, both answered without
    reading (or waiting for) a body."""

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
    def test_malformed_is_bad_request(self, sync_server, value):
        status, doc = _raw_request(sync_server, value)
        _assert_envelope(status, doc)
        assert status == 400
        assert doc["error"]["code"] == "bad_request"

    def test_oversized_is_payload_too_large(self, sync_server):
        started = time.perf_counter()
        status, doc = _raw_request(sync_server, "99999999999")
        _assert_envelope(status, doc)
        assert status == 413
        assert doc["error"]["code"] == "payload_too_large"
        assert time.perf_counter() - started < 2.0


class TestSingleFlight:
    def test_concurrent_identical_misses_run_once(self, monkeypatch):
        """8 concurrent identical cache-missing searches: one
        algorithm execution, 7 shared answers, identical bodies."""
        from repro.algorithms.registry import get_cs_algorithm

        algo = get_cs_algorithm("global")
        runs = []
        inner = algo.func

        def counted(*args, **kwargs):
            runs.append(1)
            time.sleep(0.3)  # keep the leader in flight
            return inner(*args, **kwargs)

        monkeypatch.setattr(algo, "func", counted)
        explorer = CExplorer(workers=2)
        explorer.add_graph("dblp", _graph())
        srv = make_server(explorer, port=0)
        threading.Thread(target=srv.serve_forever, daemon=True).start()
        try:
            barrier = threading.Barrier(8)
            results = [None] * 8

            def query(i):
                barrier.wait()
                results[i] = _post(srv, "/v1/search",
                                   {"vertex": "jim gray", "k": 3,
                                    "algorithm": "global"})

            threads = [threading.Thread(target=query, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            bodies = set()
            for status, _, doc in results:
                _assert_envelope(status, doc)
                assert doc["ok"]
                bodies.add(json.dumps(doc["data"]["communities"]))
            assert len(bodies) == 1
            assert len(runs) == 1
            counters = explorer.engine.snapshot()["counters"]
            assert counters["shared_answers"] == 7
            assert explorer.engine.flights.in_flight() == 0
        finally:
            srv.shutdown()
            explorer.engine.shutdown()
