"""Percentiles and the per-layer ledger of a traced run."""

import math

from layers import ALGORITHMS, LAYERS


def percentile(values, p):
    """The ``p``-quantile (0..1) of ``values``, linearly interpolated;
    0.0 for no values (a layer that never ran)."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * p
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def beyond(values, p):
    """How many samples lie above the ``p``-quantile."""
    cut = percentile(values, p)
    return sum(1 for x in values if x > cut)


def _delta(after, before, *path):
    a, b = after, before
    for key in path:
        a, b = a.get(key, {}), b.get(key, {})
    return (a or 0) - (b or 0)


def layer_metrics(spans, observations, counters, window, client_total,
                  wall, clients, untraced_wall):
    """Every per-layer metric of one traced run, plus the self-check
    ``(total self seconds, wall * clients)``.  ``wall`` is the traced
    replay's wall time, ``untraced_wall`` the same requests' untraced
    wall time.

    Per-function timings use every span of the traced process, set-up
    included (index builds and the graph load happen only there);
    the ledger (self shares, calls, unattributed share) uses only the
    spans inside the measured ``window``.  Counters are deltas across
    the window, except index builds, which count from process start.
    """
    by_name = {}
    for name, start, duration, self_time, blocking in spans:
        by_name.setdefault(name, []).append((duration, self_time))

    def durations(*names):
        return [d for n in names for d, _ in by_name.get(n, ())]

    def p50(scale, *names):
        return percentile(durations(*names), 0.5) * scale

    def observed(name):
        return [value for n, _, value in observations if n == name]

    m = {}
    before, after = counters
    m["server.self_ms_p50"] = percentile(
        [s for _, s in by_name.get("server.request", ())], 0.5) * 1e3
    m["server.requests"] = sum(
        _delta(after, before, "requests", route)
        for route in ("/v1/search", "/v1/display"))
    m["server.errors"] = _delta(after, before, "errors")

    waits = observed("executor.queue_wait")
    m["executor.queue_wait_ms_p50"] = percentile(waits, 0.5) * 1e3
    m["executor.queue_wait_ms_p99"] = percentile(waits, 0.99) * 1e3
    for counter in ("rejected", "full_query_fallbacks"):
        m["executor." + counter] = _delta(after, before, "engine",
                                          "counters", counter)
    for counter in ("batches", "shared_answers"):
        m["batching." + counter] = _delta(after, before, "engine",
                                          "counters", counter)

    hits = _delta(after, before, "cache", "hits")
    misses = _delta(after, before, "cache", "misses")
    m["cache.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    m["cache.get_us_p50"] = p50(1e6, "cache.get")
    m["cache.evictions"] = _delta(after, before, "cache", "evictions")
    for reason in ("core-cascade", "truss-cascade", "evict-all"):
        m["cache.invalidations." + reason] = _delta(
            after, before, "cache", "invalidations_by_reason", reason)

    m["plans.plan_search_us_p50"] = p50(1e6, "plans.plan_search")
    full = observed("plans.full_query")
    m["plans.full_query_share"] = sum(full) / len(full) if full else 0.0

    indexes = after.get("engine", {}).get("indexes", {})
    m["index_manager.cltree_builds"] = sum(
        doc.get("builds", 0) for doc in indexes.values())
    m["index_manager.cltree_build_ms"] = 1e3 * max(
        [doc.get("build_seconds") or 0.0 for doc in indexes.values()],
        default=0.0)
    m["index_manager.truss_builds"] = len(durations(
        "core.truss_decomposition"))
    m["index_manager.core_builds"] = len(durations("core.core_decomposition"))
    freezes = observed("index_manager.freeze")
    m["index_manager.payload_freezes"] = len(freezes)
    m["index_manager.freeze_ms"] = percentile(freezes, 0.5) * 1e3

    m["explorer.search_ms_p50"] = p50(1e3, "explorer.search")
    m["explorer.resolve_vertex_us_p50"] = p50(1e6, "explorer.resolve_vertex")
    m["explorer.display_ms_p50"] = p50(1e3, "explorer.display")

    m["core.acq_ms_p50"] = p50(1e3, "core.acq")
    m["core.build_cltree_ms_p50"] = p50(1e3, "core.build_cltree")
    m["core.core_decomposition_ms_p50"] = p50(1e3,
                                              "core.core_decomposition")
    m["core.truss_decomposition_ms_p50"] = p50(1e3,
                                               "core.truss_decomposition")
    m["core.maintenance.update_us_p50"] = p50(1e6, "core.maintenance.update")
    m["core.truss_maintenance.update_us_p50"] = p50(
        1e6, "core.truss_maintenance.update")

    for name in ALGORITHMS:
        m["algorithms.{}_ms_p50".format(name)] = p50(1e3,
                                                     "algorithms." + name)

    m["graph.load_graph_ms"] = p50(1e3, "graph.load_graph")
    m["graph.freeze_ms"] = p50(1e3, "graph.freeze")
    m["graph.keyword_postings_ms"] = p50(1e3, "graph.keyword_postings")

    m["viz.layout_ms_p50"] = p50(1e3, "viz.layout")
    m["viz.render_svg_ms_p50"] = p50(1e3, "viz.render_svg")

    # The ledger: where the client-observed time of the window went.
    w0, w1 = window
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for name, start, duration, self_time, blocking in spans:
        if start < w0 or start + duration > w1:
            continue
        layer = name.split(".", 1)[0]
        calls[layer] += 1
        if not blocking:
            self_by_layer[layer] += self_time
    for layer in LAYERS:
        m[layer + ".self_share"] = (self_by_layer[layer] / client_total
                                    if client_total else 0.0)
        m[layer + ".calls"] = calls[layer]
    total_self = sum(self_by_layer.values())
    m["trace.unattributed_share"] = (1.0 - total_self / client_total
                                     if client_total else 0.0)
    m["trace.overhead_share"] = wall / untraced_wall - 1.0
    return m, (total_self, wall * clients)
