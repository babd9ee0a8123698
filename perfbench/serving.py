"""The HTTP side: a ``repro serve`` child process and closed-loop clients."""

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

from inputs import cache_path, program_env

HERE = os.path.dirname(os.path.abspath(__file__))
READY_TIMEOUT = 120.0
REQUEST_TIMEOUT = 60.0


class ServerProcess:
    """``python -m repro serve`` with default flags on a free port, or
    the same command under :mod:`serve_traced` when ``spans`` names a
    file for the traced server's spans."""

    def __init__(self, root, graph_path, spans=None):
        cli = ["serve", "--graph", graph_path, "--port", "0"]
        if spans is None:
            argv = [sys.executable, "-m", "repro"] + cli
        else:
            argv = [sys.executable, os.path.join(HERE, "serve_traced.py"),
                    spans] + cli
        self.log_path = cache_path(root, "logs",
                                   "serve-{}.log".format(os.getpid()))
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(argv, env=program_env(root),
                                     stdout=self._log,
                                     stderr=subprocess.STDOUT)
        self.port = self._await_port()

    def _await_port(self):
        deadline = time.monotonic() + READY_TIMEOUT
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                break
            with open(self.log_path, encoding="utf-8") as handle:
                match = re.search(r"serving on http://[^:]+:(\d+)/",
                                  handle.read())
            if match:
                return int(match.group(1))
            time.sleep(0.01)
        self.stop()
        raise RuntimeError("server did not start; log: " + self.log_path)

    def request(self, method, path, body=None, timeout=REQUEST_TIMEOUT):
        """``(status, parsed JSON document)``."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=timeout)
        try:
            conn.request(method, path,
                         body=json.dumps(body) if body is not None
                         else None)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def metrics(self):
        status, doc = self.request("GET", "/v1/metrics")
        if status != 200:
            raise RuntimeError("/v1/metrics answered {}".format(status))
        return doc["data"]

    def peak_rss_mb(self):
        """VmHWM of the server process, in MiB."""
        with open("/proc/{}/status".format(self.proc.pid)) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for pid {}".format(self.proc.pid))

    def stop(self):
        """SIGINT (``serve`` shuts down cleanly), then wait; kill if it
        does not end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def wire(request):
    """The JSON body a browser sends for ``request``."""
    query = request.query
    body = {"vertex": request.name, "k": query.k,
            "algorithm": query.algorithm}
    if query.keywords is not None:
        body["keywords"] = list(query.keywords)
    return body


def answer_of(route, data):
    """Canonical answer: the member names of each community, in order."""
    if route == "display":
        return (tuple(data["community"]["vertices"]),)
    return tuple(tuple(c["vertices"]) for c in data["communities"])


class Op:
    """One completed request: what was asked, how long, what came back."""

    __slots__ = ("request", "latency", "ok", "answer", "error")

    def __init__(self, request, latency, ok, answer, error):
        self.request = request
        self.latency = latency
        self.ok = ok
        self.answer = answer
        self.error = error


def closed_loop(server, streams, seconds=None, counts=None):
    """One thread per stream; each sends its next request only after
    the previous reply.  Runs for ``seconds``, or until client ``i`` has
    sent ``counts[i]`` requests.  Returns ``(ops per client, wall)``.

    Replies are parsed after the run, so the clients' own work competes
    as little as possible with the server for the CPUs.
    """
    results = [[] for _ in streams]
    start = time.perf_counter()
    stop_at = start + seconds if seconds is not None else None

    def client(i):
        ops = results[i]
        for request in streams[i]:
            if counts is not None and len(ops) >= counts[i]:
                return
            if stop_at is not None and time.perf_counter() >= stop_at:
                return
            body = json.dumps(wire(request)).encode("utf-8")
            path = "/v1/" + request.route
            sent = time.perf_counter()
            try:
                conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                                  timeout=REQUEST_TIMEOUT)
                try:
                    conn.request("POST", path, body=body)
                    response = conn.getresponse()
                    raw = response.read()
                finally:
                    conn.close()
            except Exception as exc:  # any failure is a failed request
                ops.append(Op(request, time.perf_counter() - sent, False,
                              None, repr(exc)))
                continue
            op = Op(request, time.perf_counter() - sent, True, None, None)
            op.answer = (response.status, raw)
            ops.append(op)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(len(streams))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    for op in (op for ops in results for op in ops if op.ok):
        status, raw = op.answer
        try:
            if status != 200:
                raise RuntimeError("HTTP {}: {}".format(status, raw[:200]))
            op.answer = answer_of(op.request.route, json.loads(raw)["data"])
        except Exception as exc:  # a bad reply is a failed request
            op.ok, op.answer, op.error = False, None, repr(exc)
    return results, wall
