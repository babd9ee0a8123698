"""``repro.engine`` -- the query execution engine.

Why this layer exists
=====================

C-Explorer (Fang et al., PVLDB 2017) is an *interactive service*: many
concurrent users issue ACQ / k-core / k-truss searches against shared
graphs while uploads and edge edits mutate those graphs underneath.
The seed reproduction ran every ``/api/search`` inline on its HTTP
handler thread with no result reuse and ad-hoc lazy index builds --
fine for one user, hopeless for the ROADMAP's "heavy traffic from
millions of users".  This package is the execution layer between the
server and the algorithms; every later scaling step (single-flight
dedup, a persistent cache) plugs into it.

The modules
===========

``executor``
    :class:`~repro.engine.executor.QueryEngine`: a bounded worker pool
    with an admission-controlled request queue (full queue -> immediate
    :class:`~repro.util.errors.EngineBusyError`, surfaced as HTTP 429),
    per-query deadlines, best-effort cancellation, a synchronous
    ``execute`` path for library callers, and ``run_jobs``, the one
    place whole-query and detection jobs run: in the process pool, or
    serially on the calling thread when there is no pool or its
    circuit breaker is open.

``cache``
    :class:`~repro.engine.cache.ResultCache`: an LRU over
    ``(graph, algorithm, normalized query params)`` with
    hit/miss/eviction/invalidation counters and footprint-based
    *selective* invalidation.

``index_manager``
    :class:`~repro.engine.index_manager.IndexManager`: explicit
    CL-tree/k-core/truss lifecycle -- build on upload, eagerly, or in
    the background; versioned immutable snapshots (the truss index is
    versioned independently); invalidation hooks wired into
    :class:`~repro.core.maintenance.CoreMaintainer` and
    :class:`~repro.core.truss_maintenance.TrussMaintainer` so
    incremental edge updates bump the versions and selectively evict
    cached results -- with both maintainers attached, even k-truss/ATC
    entries survive updates disjoint from their footprint.

``plans``
    :func:`~repro.engine.plans.plan_search`: picks the CS strategy
    (CL-tree-backed ACQ vs. index-free local expansion) from graph
    size, index readiness, and keyword constraints; powers the
    ``"algorithm": "auto"`` API.

``batching``
    :class:`~repro.engine.batching.SingleFlight`: concurrent identical
    cache-missing searches share one execution, each caller holding
    its own future.

``stats``
    :class:`~repro.engine.stats.EngineStats`: latency histograms
    (p50/p95) and throughput counters behind ``/v1/metrics``.

``backends``
    Execution backends.  :class:`~repro.engine.backends.ProcessBackend`
    plus the picklable job functions that let whole queries and
    detections (whole-graph or per component) run in a
    ``multiprocessing`` pool over frozen CSR snapshots
    (:class:`~repro.graph.frozen.FrozenGraph`).

``retry`` / ``faults``
    Per-job retry policies, the process pool's circuit breaker,
    payload quarantine, and seeded fault injection.

Choosing a backend
==================

``QueryEngine(backend="thread")`` (default) keeps everything
in-process: shared memory, no serialisation, lowest latency -- the
right choice for small graphs, warm-cache interactive traffic, and
single-core hosts.  ``backend="process"`` ships whole searches and
detections to worker processes fed by
:class:`~repro.graph.frozen.FrozenGraph` snapshots, dodging the GIL
-- pick it on multi-core hosts where cold structural queries
dominate.  Index builds run in-process on both backends.  Results
are identical either way (a property-tested invariant); the process
backend transparently falls back in-process on any pool failure, and
its overheads are observable as ``snapshot_build`` / ``shard_ipc``
latency ops in ``/v1/metrics``::

    explorer = CExplorer(workers=4, backend="process")
    explorer.add_graph("dblp", generate_dblp_graph())
    explorer.search("acq", "Jim Gray", k=4)   # runs in a worker
    explorer.engine.snapshot()["backend"]     # "process"

Quickstart
==========

::

    from repro import CExplorer
    from repro.datasets import generate_dblp_graph

    explorer = CExplorer(workers=4)
    explorer.add_graph("dblp", generate_dblp_graph())

    future = explorer.engine.search("acq", "Jim Gray", k=4)
    communities = future.result(timeout=5.0)

    explorer.engine.snapshot()      # queue depth, hit rate, p50/p95

Mutations route through a maintainer so caches stay honest::

    maintainer = explorer.maintainer()      # wired CoreMaintainer
    maintainer.insert_edge(u, v)            # bumps the index version,
                                            # selectively evicts
"""

from repro.engine.backends import (
    BACKENDS,
    ProcessBackend,
    ProcessBackendError,
)
from repro.engine.cache import ResultCache, query_key
from repro.engine.executor import EngineFuture, QueryEngine
from repro.engine.faults import FaultPlan, FaultRule
from repro.engine.index_manager import IndexManager, IndexSnapshot
from repro.engine.plans import QueryPlan, plan_search
from repro.engine.retry import (
    CircuitBreaker,
    ResiliencePlane,
    RetryPolicy,
)
from repro.engine.stats import EngineStats, LatencyHistogram
from repro.engine.tracing import QueryTrace, TraceRecorder

__all__ = [
    "BACKENDS",
    "CircuitBreaker",
    "EngineFuture",
    "EngineStats",
    "FaultPlan",
    "FaultRule",
    "IndexManager",
    "IndexSnapshot",
    "LatencyHistogram",
    "ProcessBackend",
    "ProcessBackendError",
    "QueryEngine",
    "QueryPlan",
    "QueryTrace",
    "ResiliencePlane",
    "ResultCache",
    "RetryPolicy",
    "TraceRecorder",
    "plan_search",
    "query_key",
]
