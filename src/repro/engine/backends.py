"""Execution backends: where engine work actually runs.

The :class:`~repro.engine.executor.QueryEngine` always owns a bounded
*thread* pool -- admission control, deadlines and cancellation live
there, and for I/O-light interactive traffic (cache hits, planning,
small searches) threads are the right tool.  But the CPU-heavy
structural kernels (core decomposition, CL-tree builds, whole
searches) serialise behind the GIL: a thread pool buys concurrency,
not parallelism.  This module adds the **process backend**:

* :class:`ProcessBackend` -- a lazily started
  ``concurrent.futures.ProcessPoolExecutor`` (``fork`` context where
  available, so workers start fast and inherit the interpreter state)
  with per-job child-side timing, so the parent can report IPC
  overhead (round-trip minus child compute) separately;
* module-level **job functions** -- process jobs must be picklable,
  so the work units ship as top-level functions fed by
  :class:`~repro.graph.frozen.FrozenGraph` payloads:
  :func:`shard_full_query_job` (one whole community search),
  :func:`component_detect_job` (a detection, or one component's
  slice of it) and :func:`build_index_job` (a core + CL-tree build);
* a small **worker-side payload cache** keyed by the payload's
  ``(manager epoch, graph, version)`` identity -- repeated queries
  against an unchanged graph skip both the payload resolution and the
  derived decompositions in the worker.

Choosing a backend
==================

``backend="thread"`` (default): lowest latency, shared memory, exact
pre-PR behaviour.  Right for small graphs, cache-heavy interactive
traffic, or single-core hosts.  ``backend="process"``: whole queries
and CL-tree builds run in separate processes on frozen CSR snapshots
-- real parallelism for CPU-bound structural work on multi-core
hosts, at the cost of payload shipping (measured and reported as
``snapshot_build`` / ``shard_ipc`` in ``/v1/metrics``).
Results are identical either way (a tested invariant); every process
failure falls back to in-process execution rather than failing the
query.
"""

import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from concurrent.futures.process import BrokenProcessPool

from repro.core.cltree import build_cltree
from repro.core.kcore import core_decomposition
from repro.core.ktruss import truss_decomposition
from repro.engine import faults as fault_injection
from repro.engine import payloads as payload_plane
from repro.engine import tracing
from repro.util.errors import (
    EngineError,
    JobPayloadError,
    PayloadCorruptionError,
    QueryTimeoutError,
)

BACKENDS = ("thread", "process")

# Worker-side cache: payload key -> the snapshot plus its lazily built
# derived structures (see _full_graph_entry).  Bounded: version churn
# on long-lived workers must not grow it without limit.
_WORKER_CACHE = {}
_WORKER_CACHE_MAX = 64


class ProcessBackendError(EngineError):
    """The process pool could not run a job (broken pool, unpicklable
    payload); callers fall back to in-process execution."""


def validate_backend(backend):
    """Normalise and validate a backend name."""
    if backend not in BACKENDS:
        raise EngineError(
            "unknown backend {!r}; choose from {}".format(
                backend, BACKENDS))
    return backend


# ----------------------------------------------------------------------
# cooperative deadlines (the worker side of deadline propagation)
# ----------------------------------------------------------------------

# Per-execution-context job environment.  In a worker process jobs run
# one at a time so this is effectively process-global; in the parent
# (thread backend / inline fallback) it is per-thread, which is
# exactly the job granularity there.  Wall-clock based: the deadline
# crosses a process boundary, where perf_counter epochs differ.
_job_env = threading.local()


def set_job_deadline(wall_deadline):
    """Install the caller's remaining deadline (``time.time()``-based,
    or ``None``) for jobs running in this context."""
    _job_env.deadline = wall_deadline


def check_deadline():
    """Cooperative deadline check inside job functions.

    Raises :class:`~repro.util.errors.QueryTimeoutError` once the
    caller's deadline has passed -- so an orphaned job (its parent
    already timed out, or it lost a hedge race) self-cancels at the
    next phase boundary instead of burning a worker to completion.
    """
    deadline = getattr(_job_env, "deadline", None)
    if deadline is not None and time.time() > deadline:
        raise QueryTimeoutError(
            "worker job exceeded the caller's deadline")


# ----------------------------------------------------------------------
# job functions (top-level: process jobs must pickle by reference)
# ----------------------------------------------------------------------

def _timed_job(fn, args, fault=None, deadline=None):
    """Run ``fn(*args)`` and return ``(child_seconds, spans,
    result)``.

    ``spans`` is the wire-format list of tracing spans the job
    recorded (index thaw, lazy decomposition builds, algorithm run --
    see :func:`~repro.engine.tracing.collect_worker_spans`); the
    parent grafts them under the job's ``worker_execute`` span.
    ``fault`` carries worker-side fault actions the parent's
    :class:`~repro.engine.faults.FaultPlan` drew for this job;
    ``deadline`` is the caller's remaining wall-clock deadline, made
    visible to the job through :func:`check_deadline`.
    """
    start = time.perf_counter()
    set_job_deadline(deadline)
    try:
        with tracing.collect_worker_spans() as log:
            fault_injection.apply_worker_actions(fault)
            check_deadline()
            result = fn(*args)
            if fault_injection.wants_duplicate(fault):
                # The "duplicate" fault: run the (idempotent) job
                # again, as a duplicated queue delivery would.
                result = fn(*args)
    finally:
        set_job_deadline(None)
    return time.perf_counter() - start, log.wire(), result


def _loads_payload(key, blob):
    """Resolve a shipped payload to its object form.

    ``blob`` is either a payload-plane ref (shared-memory segment or
    fork-registry locator, resolved zero-copy by
    :func:`repro.engine.payloads.attach`) or the pickled bytes of the
    fallback rung.  Any failure -- torn segment, registry miss,
    undecodable bytes -- becomes
    :class:`~repro.util.errors.PayloadCorruptionError` carrying the
    payload identity, the signal the engine's quarantine keys on."""
    if payload_plane.is_ref(blob):
        return payload_plane.attach(blob)
    try:
        return pickle.loads(blob)
    except Exception as exc:
        raise PayloadCorruptionError(
            "payload {!r} failed to unpickle: {}".format(key, exc),
            key=key) from exc


def _full_graph_entry(key, payload):
    """The worker's cached state for one whole-graph payload.

    ``payload`` is either the pickled :class:`~repro.graph.frozen.
    FrozenGraph` blob (process shipping) or the snapshot object itself
    (in-process fallback, where no serialisation hop exists).  The
    returned dict caches the snapshot and, lazily, every derived
    structure a whole query may need -- core numbers, the CL-tree, the
    truss map -- so an unchanged graph pays each decomposition once
    per worker, not once per query.
    """
    entry = _WORKER_CACHE.get(key)
    if entry is None:
        if isinstance(payload, (bytes, bytearray)):
            with tracing.span("index_thaw", bytes=len(payload)):
                frozen = _loads_payload(key, payload)
        elif payload_plane.is_ref(payload):
            # Zero-copy rung: attach the shared segment (or registry
            # snapshot) instead of unpickling -- near-free, but still
            # spanned so traces show which rung served the query.
            with tracing.span("index_thaw", zero_copy=True):
                frozen = _loads_payload(key, payload)
        else:
            frozen = payload
        entry = {"frozen": frozen}
        if len(_WORKER_CACHE) >= _WORKER_CACHE_MAX:
            _WORKER_CACHE.clear()
        _WORKER_CACHE[key] = entry
    return entry


def _entry_core(entry):
    """Core numbers of the entry's snapshot (computed once)."""
    core = entry.get("core")
    if core is None:
        with tracing.span("core_build"):
            core = entry["core"] = core_decomposition(entry["frozen"])
    return core


def _entry_cltree(entry):
    """CL-tree over the entry's snapshot (built once)."""
    tree = entry.get("cltree")
    if tree is None:
        core = _entry_core(entry)
        with tracing.span("cltree_build"):
            tree = entry["cltree"] = build_cltree(entry["frozen"],
                                                  core=core)
    return tree


def _entry_truss(entry):
    """Truss map of the entry's snapshot (computed once)."""
    truss = entry.get("truss")
    if truss is None:
        with tracing.span("truss_build"):
            truss = entry["truss"] = truss_decomposition(
                entry["frozen"])
    return truss


def shard_full_query_job(key, payload, algorithm, q, k, keywords=None):
    """Run one **whole** community search in a worker process.

    The worker executes the complete query -- structural phase,
    keyword enumeration, verification -- against the cached frozen
    whole-graph snapshot; derived structures (core numbers, CL-tree,
    truss map) are cached per payload identity.

    Returns the communities in :meth:`~repro.core.community.Community.
    to_wire` form; the parent rebinds them to its live graph object.
    Results are byte-identical to parent-side execution (the frozen
    equivalence the protocol suite proves).
    """
    from repro.algorithms.global_search import global_search
    from repro.algorithms.registry import get_cs_algorithm
    from repro.algorithms.truss_search import truss_community_search
    from repro.core.acq import acq_search

    check_deadline()
    entry = _full_graph_entry(key, payload)
    frozen = entry["frozen"]
    q0 = q if isinstance(q, int) else tuple(q)[0]
    if algorithm in ("acq", "acq-inc-s", "acq-inc-t"):
        variant = "dec" if algorithm == "acq" \
            else algorithm[len("acq-"):]
        index = _entry_cltree(entry)
        with tracing.span("algorithm", algorithm=algorithm):
            result = acq_search(frozen, q, k, keywords=keywords,
                                algorithm=variant, index=index)
    elif algorithm == "global":
        core = _entry_core(entry)
        with tracing.span("algorithm", algorithm=algorithm):
            result = global_search(frozen, q0, k, core=core)
    elif algorithm == "k-truss":
        truss = _entry_truss(entry)
        with tracing.span("algorithm", algorithm=algorithm):
            result = truss_community_search(frozen, q0, k, truss=truss)
    else:
        # Every other registered CS algorithm takes the plain
        # protocol call (atc, codicil, local, steiner, plug-ins).
        with tracing.span("algorithm", algorithm=algorithm):
            result = get_cs_algorithm(algorithm)(frozen, q, k,
                                                 keywords=keywords)
    return [community.to_wire() for community in result]


def component_detect_job(key, payload, algorithm, component, params):
    """Run one CD detection (or one component's slice of it) in a
    worker process.

    ``component`` is ``None`` for the whole graph, or the sorted
    global vertex ids of one connected component -- the worker carves
    the induced frozen subgraph straight out of the cached CSR
    snapshot and maps the resulting communities back to global ids.
    ``params`` is the detection's keyword arguments as a sorted item
    tuple (canonical and picklable).  Returns wire-form communities.
    """
    from repro.algorithms.registry import get_cd_algorithm

    check_deadline()
    entry = _full_graph_entry(key, payload)
    frozen = entry["frozen"]
    old_ids = None
    if component is not None:
        frozen, _ = frozen.induced_subgraph(component)
        old_ids = list(component)  # sorted: the id map is monotone
    with tracing.span("algorithm", algorithm=algorithm,
                      component=len(old_ids) if old_ids else None):
        result = get_cd_algorithm(algorithm)(frozen, **dict(params))
    wires = []
    for community in result:
        vertices, method, query_vertices, k, shared = \
            community.to_wire()
        if old_ids is not None:
            vertices = tuple(old_ids[v] for v in vertices)
        wires.append((vertices, method, query_vertices, k, shared))
    return wires


def build_index_job(frozen, core=None):
    """Build ``(core numbers, CL-tree)`` over a frozen graph.

    The returned tree's ``graph`` attribute still points at the frozen
    snapshot; the parent rebinds it to the live graph object before
    installing the snapshot (node structure, homed vertices and
    inverted lists are graph-object independent).
    """
    if core is None:
        core = core_decomposition(frozen)
    tree = build_cltree(frozen, core=core)
    return core, tree


# ----------------------------------------------------------------------
# the process pool
# ----------------------------------------------------------------------

class ProcessBackend:
    """A lazily started process pool with per-job child timing.

    Thin by design: admission control, deadlines and stats stay in the
    :class:`~repro.engine.executor.QueryEngine`; this class only ships
    picklable jobs and reports ``(results, child_seconds,
    ipc_seconds)`` so the engine can separate compute from transport.
    """

    def __init__(self, workers):
        self.workers = max(1, int(workers))
        self._pool = None

    def _ensure(self):
        if self._pool is None:
            try:
                import multiprocessing
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX hosts
                context = None
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=context)
        return self._pool

    def submit_job(self, fn, args, fault=None, deadline=None):
        """Submit one job; returns its ``concurrent.futures`` future.

        ``fault`` ships worker-side fault actions drawn by the
        parent's plan; ``deadline`` is the caller's remaining
        wall-clock deadline (``time.time()`` based), installed in the
        worker so the job can self-cancel cooperatively.  Raises
        :class:`ProcessBackendError` when the *pool* cannot accept
        work (broken/shut down -- the substrate is at fault) and
        :class:`~repro.util.errors.JobPayloadError` when this job's
        arguments will not pickle (the job is at fault; the pool stays
        up and siblings are unaffected).
        """
        pool = self._ensure()
        try:
            return pool.submit(_timed_job, fn, args, fault, deadline)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise JobPayloadError(
                "job payload did not pickle: {}".format(exc)) from exc
        except (BrokenProcessPool, RuntimeError) as exc:
            self._break()
            raise ProcessBackendError(
                "process pool submission failed: {}".format(exc)) from exc

    def job_result(self, future, budget=None):
        """One job's ``(child_seconds, spans, result)``, with the
        error taxonomy callers dispatch on: :class:`QueryTimeoutError`
        past ``budget``, :class:`ProcessBackendError` for pool death
        (breaking the pool so the next use starts fresh),
        :class:`~repro.util.errors.JobPayloadError` for a payload that
        failed to pickle in the feeder thread (the pool survives; only
        this job fails -- unpicklable payloads used to take the whole
        fan-out down with a pool fallback), and any worker-raised
        exception as itself."""
        try:
            return future.result(budget)
        except _FutureTimeout:
            raise QueryTimeoutError(
                "process job did not finish within "
                "{:.3f}s".format(budget)) from None
        except BrokenProcessPool as exc:
            self._break()
            raise ProcessBackendError(
                "process pool died mid job: {}".format(exc)) from exc
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            # An unpicklable payload surfaces on the future, not at
            # submit (the pool pickles in a feeder thread) -- and as
            # whatever the pickler raised (a local function is an
            # AttributeError, an unpicklable value a TypeError).
            raise JobPayloadError(
                "job payload did not pickle: {}".format(exc)) from exc

    def run_jobs(self, jobs, timeout=None, collect_spans=False):
        """Run ``(fn, args)`` jobs concurrently in worker processes.

        Returns ``(results, child_seconds, ipc_seconds)`` in job
        order; ``child_seconds[i]`` is job ``i``'s in-worker compute
        time, ``ipc_seconds[i]`` the rest of its round-trip (queueing
        + pickling both ways).  With ``collect_spans=True`` a fourth
        element is appended: per-job wire-format tracing span lists
        recorded inside the workers (the engine grafts them into the
        query's trace).  Raises :class:`ProcessBackendError` on a
        broken pool, :class:`~repro.util.errors.JobPayloadError` for
        an unpicklable job (pool intact), and
        :class:`QueryTimeoutError` when ``timeout`` elapses.
        """
        wall_deadline = (time.time() + timeout
                         if timeout is not None else None)
        submitted = [(time.perf_counter(),
                      self.submit_job(fn, args, deadline=wall_deadline))
                     for fn, args in jobs]
        results = []
        child_seconds = []
        ipc_seconds = []
        job_spans = []
        deadline = (time.perf_counter() + timeout
                    if timeout is not None else None)
        for i, (started, future) in enumerate(submitted):
            budget = None
            if deadline is not None:
                budget = max(deadline - time.perf_counter(), 0.0)
            try:
                child, spans, result = self.job_result(future, budget)
            except QueryTimeoutError:
                for _, later in submitted[i:]:
                    later.cancel()
                raise QueryTimeoutError(
                    "process fan-out did not finish within "
                    "{:.3f}s".format(timeout)) from None
            roundtrip = time.perf_counter() - started
            results.append(result)
            child_seconds.append(child)
            ipc_seconds.append(max(roundtrip - child, 0.0))
            job_spans.append(spans)
        if collect_spans:
            return results, child_seconds, ipc_seconds, job_spans
        return results, child_seconds, ipc_seconds

    def run_build(self, frozen, core=None):
        """One :func:`build_index_job` in a worker; returns
        ``(core, cltree, child_seconds)``."""
        results, child_seconds, _ = self.run_jobs(
            [(build_index_job, (frozen, core))])
        core, tree = results[0]
        return core, tree, child_seconds[0]

    def _break(self):
        """Drop a broken pool so the next use starts a fresh one."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False)

    def close(self):
        """Shut the pool down without waiting for stragglers."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False)
