"""The three workloads.

``browse-20k``       one user exploring a 20k-author graph over HTTP:
                     every query distinct, so the result cache never hits.
``serve-hot-2k``     two browser tabs on the default 2k graph, Zipf-skewed
                     repeats, so most requests are cache hits.
``edit-browse-20k``  edge edits through the maintenance gateway beside
                     ACQ-majority searches, in-process (maintenance has
                     no HTTP route).

Each returns an :class:`Outcome`; ``traced=True`` runs the traced
variant, whose numbers are the per-layer metrics.
"""

import json
import os
import random
import statistics
import subprocess
import sys
import time

import answers
import inputs
import ledger
import serving

SETUPS = 3            # set-ups per untraced run; setup_s is their median
# Every run uses the same generated graphs; the workload seed drives the
# request and edit streams.  Graphs generated from different seeds
# differ enough (community sizes at k=3) to move throughput by 30%
# from seed to seed, which would drown any change worth measuring.
GRAPH_SEED = 7
FAMILIES = ("acq", "global", "local", "k-truss", "atc")

# browse-20k: ACQ is the majority (60%, a sixth of them with a small
# S), then ATC 15%, global and k-truss 10% each and local 5%, in a
# fixed order.  By latency the fast kinds (local, k-truss, ACQ with S,
# global) fill the lowest 35%, so the median falls a third of the way
# into ACQ with S = W(q) (50%), and the p90 inside ATC (the slowest 15%).
BROWSE_PATTERN = ("acq", "global", "acq", "atc", "acq", "k-truss", "acq/S",
                  "acq", "atc/S", "acq", "global", "acq", "local", "acq",
                  "atc", "acq/S", "acq", "k-truss", "acq", "acq")

# serve-hot-2k: a 200-query pool (the result cache holds 256) in a
# fixed 60/15/10/10/5 algorithm pattern, 20% displays of pool ACQ
# answers, 10% of searches fresh (the misses the p99 falls among), 30%
# of names lower-cased.
HOT_CLIENTS = 2
HOT = dict(pattern=("acq", "global", "acq", "k-truss", "acq", "local",
                    "acq", "acq", "atc", "acq", "global", "acq", "k-truss",
                    "acq", "local", "acq", "acq", "global", "acq", "acq"),
           zipf_s=0.5, display_share=0.2, fresh_share=0.1,
           lower_share=0.3)

# edit-browse-20k: 8 edits per batch.  After the read-after-write ACQ
# each round runs an ACQ with a small S and a k-truss or global search:
# two samples per round for search_p50_ms, which falls among the ACQs
# (k-truss answers in ~2 ms, global in ~70 ms).
EDIT_ROUNDS = 120    # about 25 are reached in a 25 s run
EDIT_BATCH = 8
HOST_TIMEOUT = 120.0

HERE = os.path.dirname(os.path.abspath(__file__))


class Outcome:
    """What one run measured: gated metrics, reported-only metrics (each
    ``name -> (value, unit, samples)``), and the operation tallies."""

    def __init__(self):
        self.metrics = {}
        self.report = {}
        self.per_layer = {}
        self.percentiles = []   # (name, values, p, gated): self-check
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.self_time = None   # (layer self seconds, wall * clients)
        self.graph = None       # the benchmark's view of the input graph
        self.checked = 0        # answers compared with the references

    def timing(self, name, values, p, gated=True):
        value = ledger.percentile(values, p) * 1e3
        target = self.metrics if gated else self.report
        target[name] = (value, "ms", len(values))
        self.percentiles.append((name, values, p, gated))

    def fail(self, count, why):
        self.failed += count
        self.failures.append(why)


def _warm(server, queries, labels):
    """Search each query once; any failure aborts the run."""
    for query in queries:
        request = inputs.Request("search", query, labels[query.vertex])
        status, doc = server.request("POST", "/v1/search",
                                     serving.wire(request))
        if status != 200:
            raise RuntimeError("warm-up {} failed: {}".format(query, doc))


def _start(ctx, graph_path, labels, warm, spans=None):
    started = time.perf_counter()
    server = serving.ServerProcess(ctx.root, graph_path, spans=spans)
    try:
        _warm(server, warm, labels)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started


def _http_run(ctx, graph_path, graph, make_streams, outcome, traced):
    """Run the streams against ``repro serve``; returns the ops.

    ``make_streams()`` gives ``(warm-up queries, client streams, hot
    queries)``.  The hot queries are searched once, untimed, after the
    set-up: the run measures a server whose cache already holds them.
    """
    warm, streams, hot = make_streams()
    if not traced:
        setups = []
        for i in range(SETUPS):
            server, seconds = _start(ctx, graph_path, graph.labels, warm)
            setups.append(seconds)
            if i < SETUPS - 1:
                server.stop()
        try:
            _warm(server, hot, graph.labels)
            per_client, wall = serving.closed_loop(server, streams,
                                                   seconds=ctx.seconds)
            rss = server.peak_rss_mb()
        finally:
            server.stop()
        outcome.metrics["setup_s"] = (statistics.median(setups), "s",
                                      len(setups))
        outcome.metrics["peak_rss_mb"] = (rss, "MB", 1)
        return per_client, wall
    # Traced: the shipped server runs half the time; the traced server
    # then replays exactly the requests each client got through.
    server, _ = _start(ctx, graph_path, graph.labels, warm)
    try:
        _warm(server, hot, graph.labels)
        untraced, untraced_wall = serving.closed_loop(
            server, streams, seconds=ctx.seconds / 2.0)
    finally:
        server.stop()
    counts = [len(ops) for ops in untraced]
    warm, streams, hot = make_streams()
    spans_path = inputs.cache_path(ctx.root, "spans",
                                   "{}.json".format(os.getpid()))
    server, _ = _start(ctx, graph_path, graph.labels, warm,
                       spans=spans_path)
    try:
        _warm(server, hot, graph.labels)
        before = server.metrics()
        w0 = time.perf_counter()
        per_client, wall = serving.closed_loop(server, streams,
                                               counts=counts)
        window = (w0, time.perf_counter())
        after = server.metrics()
    finally:
        server.stop()
    with open(spans_path, encoding="utf-8") as handle:
        trace = json.load(handle)
    os.remove(spans_path)
    client_total = sum(op.latency for ops in per_client for op in ops)
    outcome.per_layer, outcome.self_time = ledger.layer_metrics(
        trace["spans"], trace["observations"], (before, after), window,
        client_total, wall, len(streams), untraced_wall)
    return per_client, wall


def _check_http(ctx, graph_path, labels, ops, outcome, per_algorithm):
    """Consistency (one answer per query on a static graph) for every
    op, then a seeded sample of queries against the references."""
    first = {}
    for op in ops:
        if not op.ok:
            outcome.fail(1, "{} {}: {}".format(op.request.route,
                                               op.request.query, op.error))
            continue
        key = (op.request.route, op.request.query)
        seen = first.setdefault(key, op.answer)
        if seen != op.answer:
            outcome.fail(1, "inconsistent answer for {}".format(key))
    rng = random.Random("check:{}:{}".format(ctx.workload, ctx.seed))
    keys = sorted(first, key=repr)
    sample = []
    for route in ("search", "display"):
        for algorithm in FAMILIES:
            group = [k for k in keys if k[0] == route
                     and k[1].algorithm == algorithm]
            sample += rng.sample(group, min(per_algorithm, len(group)))
    reference = answers.Reference(graph_path)
    for route, query in sample:
        expected = reference.answer(query.algorithm, labels[query.vertex],
                                    query.k, query.keywords)
        if not answers.matches(route, first[(route, query)], expected):
            bad = sum(1 for op in ops if op.ok and
                      (op.request.route, op.request.query) == (route, query))
            outcome.fail(bad, "{} {} differs from the reference".format(
                route, query))
    return len(sample)


def browse(ctx, traced):
    outcome = Outcome()
    path = inputs.ensure_graph(ctx.root, 20000, GRAPH_SEED)
    graph = outcome.graph = inputs.GraphView(path)

    def make_streams():
        warm, stream = inputs.browse_stream(graph, ctx.seed, BROWSE_PATTERN,
                                            FAMILIES)
        return warm, [stream], []

    per_client, wall = _http_run(ctx, path, graph, make_streams, outcome,
                                 traced)
    ops = per_client[0]
    outcome.attempted = len(ops)
    latencies = [op.latency for op in ops if op.ok]
    outcome.timing("search_p50_ms", latencies, 0.5)
    outcome.timing("search_p90_ms", latencies, 0.9, gated=False)
    outcome.metrics["throughput_rps"] = (len(latencies) / wall, "1/s",
                                         len(latencies))
    outcome.checked = _check_http(ctx, path, graph.labels, ops, outcome, 2)
    return outcome


def serve_hot(ctx, traced):
    outcome = Outcome()
    path = inputs.ensure_graph(ctx.root, 2000, GRAPH_SEED)
    graph = outcome.graph = inputs.GraphView(path)

    def make_streams():
        return inputs.hot_streams(graph, ctx.seed, HOT_CLIENTS, FAMILIES,
                                  **HOT)

    per_client, wall = _http_run(ctx, path, graph, make_streams, outcome,
                                 traced)
    ops = [op for client in per_client for op in client]
    outcome.attempted = len(ops)
    search = [op.latency for op in ops if op.ok
              and op.request.route == "search"]
    display = [op.latency for op in ops if op.ok
               and op.request.route == "display"]
    outcome.timing("search_p50_ms", search, 0.5)
    outcome.timing("search_p99_ms", search, 0.99, gated=False)
    outcome.timing("display_p50_ms", display, 0.5, gated=False)
    done = sum(1 for op in ops if op.ok)
    outcome.metrics["throughput_rps"] = (done / wall, "1/s", done)
    outcome.checked = _check_http(ctx, path, graph.labels, ops, outcome, 3)
    return outcome


def _host(ctx, plan):
    plan_path = inputs.cache_path(ctx.root, "plans",
                                  "{}.json".format(os.getpid()))
    result_path = plan_path + ".out"
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle)
    try:
        subprocess.run([sys.executable, os.path.join(HERE, "edit_host.py"),
                        plan_path, result_path],
                       env=inputs.program_env(ctx.root), check=True,
                       timeout=HOST_TIMEOUT)
        with open(result_path, encoding="utf-8") as handle:
            return json.load(handle)
    finally:
        for path in (plan_path, result_path):
            if os.path.exists(path):
                os.remove(path)


def edit_browse(ctx, traced):
    outcome = Outcome()
    path = inputs.ensure_graph(ctx.root, 20000, GRAPH_SEED)
    graph = outcome.graph = inputs.GraphView(path)
    rounds = inputs.edit_rounds(graph, ctx.seed, EDIT_ROUNDS, EDIT_BATCH)
    labels = graph.labels
    plan = {
        "graph": path,
        "mode": "traced" if traced else "measure",
        "setups": SETUPS,
        "seconds": ctx.seconds / 2.0 if traced else ctx.seconds,
        "rounds": [
            [[[kind, labels[u], labels[v]] for kind, u, v in edits],
             [{"algorithm": q.algorithm, "name": labels[q.vertex],
               "k": q.k, "keywords": list(q.keywords)
               if q.keywords is not None else None} for q in searches]]
            for edits, searches in rounds],
    }
    result = _host(ctx, plan)
    ops = result["ops"]
    wall = result["wall"]
    outcome.attempted = len(ops)
    for op in ops:
        if not op["ok"]:
            outcome.fail(1, "round {} {}: {}".format(op["round"], op["cls"],
                                                     op["error"]))

    def latencies(cls):
        return [op["latency"] for op in ops if op["ok"] and op["cls"] == cls]

    outcome.timing("search_p50_ms", latencies("search"), 0.5)
    outcome.timing("write_batch_p50_ms", latencies("write"), 0.5,
                   gated=False)
    outcome.timing("read_after_write_p50_ms", latencies("read_after_write"),
                   0.5, gated=False)
    done = sum(1 for op in ops if op["ok"])
    outcome.metrics["throughput_rps"] = (done / wall, "1/s", done)
    if traced:
        client_total = sum(op["latency"] for op in ops)
        outcome.per_layer, outcome.self_time = ledger.layer_metrics(
            result["spans"], result["observations"], result["counters"],
            result["window"], client_total, wall, 1,
            result["untraced_wall"])
    else:
        outcome.metrics["setup_s"] = (statistics.median(result["setups"]),
                                      "s", len(result["setups"]))
        outcome.metrics["peak_rss_mb"] = (result["peak_rss_kb"] / 1024.0,
                                          "MB", 1)
    outcome.checked = _check_edit(ctx, path, rounds, labels, ops, outcome)
    return outcome


def _check_edit(ctx, graph_path, rounds, labels, ops, outcome):
    """Replay the edits on a private copy and check a seeded sample of
    searches (one of each class) at the version they were answered."""
    rng = random.Random("check:{}:{}".format(ctx.workload, ctx.seed))
    searches = [op for op in ops if op["ok"] and op["cls"] != "write"]
    sample = []
    for cls, algorithms in (("read_after_write", ("acq",)),
                            ("search", ("acq",)),
                            ("search", ("global", "k-truss"))):
        group = [op for op in searches if op["cls"] == cls and rounds[
            op["round"]][1][op["position"]].algorithm in algorithms]
        if group:
            sample.append(rng.choice(group))
    sample.sort(key=lambda op: (op["round"], op["position"]))
    reference = answers.Reference(graph_path)
    applied = 0
    for op in sample:
        while applied <= op["round"]:
            for kind, u, v in rounds[applied][0]:
                reference.apply(kind, labels[u], labels[v])
            applied += 1
        query = rounds[op["round"]][1][op["position"]]
        expected = reference.answer(query.algorithm, labels[query.vertex],
                                    query.k, query.keywords)
        if not answers.matches("search", op["answer"], expected):
            outcome.fail(1, "round {} {} differs from the reference"
                         .format(op["round"], query))
    return len(sample)


WORKLOADS = {
    "browse-20k": browse,
    "serve-hot-2k": serve_hot,
    "edit-browse-20k": edit_browse,
}


def request_digest(workload, graph, seed, n=300):
    """Digest of the first ``n`` inputs of ``workload`` for ``seed``."""
    if workload == "browse-20k":
        warm, stream = inputs.browse_stream(graph, seed, BROWSE_PATTERN,
                                            FAMILIES)
        items = warm + [next(stream) for _ in range(n)]
    elif workload == "serve-hot-2k":
        warm, streams, _ = inputs.hot_streams(graph, seed, HOT_CLIENTS,
                                              FAMILIES, **HOT)
        items = warm + [next(s) for s in streams for _ in range(n)]
    else:
        items = inputs.edit_rounds(graph, seed, n, EDIT_BATCH)
    return inputs.digest(items)
