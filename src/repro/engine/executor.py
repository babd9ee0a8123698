"""The :class:`QueryEngine`: a bounded worker pool with admission
control, per-query deadlines, and an integrated result cache.

The seed server ran every search inline on its HTTP handler thread:
one slow whole-graph detection could stack unbounded threads behind
the GIL, and nothing bounded the damage a traffic spike could do.
This engine is the dedicated execution path between the server and the
algorithms (the Polynesia argument in PAPERS.md):

* a **bounded worker pool** (threads are started lazily on first use);
* an **admission-controlled queue** -- when ``max_queue`` requests are
  already waiting, new work is rejected *immediately* with
  :class:`~repro.util.errors.EngineBusyError`, which the HTTP layer
  maps to a fast 429 instead of letting latency collapse;
* **per-query deadlines** -- a queued request past its deadline is
  dropped without running; a caller waiting on a future gets
  :class:`~repro.util.errors.QueryTimeoutError`;
* **cancellation** -- best-effort: a request still in the queue is
  dropped, a running one finishes but its result is discarded (Python
  threads cannot be killed);
* the engine-level :class:`~repro.engine.cache.ResultCache`, wired to
  the :class:`~repro.engine.index_manager.IndexManager` so maintenance
  updates selectively evict stale entries;
* **one job shape** -- :meth:`QueryEngine.run_jobs` runs whole-query
  and detection jobs over frozen-graph payloads: in a
  ``multiprocessing`` pool under the process backend (see
  :mod:`repro.engine.backends`), dodging the GIL for CPU-bound work,
  and serially on the calling thread when there is no pool or the
  pool's circuit breaker is open -- with identical results, per-job
  retries and fault injection either way;
* **single-flight dedup** -- concurrent identical cache-missing
  searches share one execution (:mod:`repro.engine.batching`);
* :class:`~repro.engine.stats.EngineStats` latency histograms behind
  ``/v1/metrics``, including the process backend's
  ``snapshot_build`` / ``shard_ipc`` overheads.

Synchronous callers (library users, the batch harness) use
:meth:`QueryEngine.execute`; the server uses :meth:`submit` /
:meth:`search` and waits with a timeout.
"""

import queue
import threading
import time
import weakref

from repro.core.community import Community
from repro.engine import faults as fault_injection
from repro.engine.backends import (
    ProcessBackend,
    ProcessBackendError,
    set_job_deadline,
    validate_backend,
)
from repro.engine.cache import ResultCache
from repro.engine.faults import FaultPlan
from repro.engine.index_manager import IndexManager
from repro.engine import payloads as payload_plane
from repro.engine.retry import RETRYABLE, ResiliencePlane
from repro.engine.stats import EngineStats
from repro.engine import tracing
from repro.engine.tracing import TraceRecorder
from repro.util.errors import (
    CExplorerError,
    EngineBusyError,
    JobPayloadError,
    PayloadCorruptionError,
    QueryCancelledError,
    QueryTimeoutError,
)

# The deadline of the engine job the current thread is executing
# (perf_counter based); run_jobs reads it so retries and shipped
# worker deadlines never outlive the caller's budget.
_job_context = threading.local()

_PENDING, _RUNNING, _DONE, _CANCELLED = range(4)


class EngineFuture:
    """A minimal future for engine jobs (stdlib-free by design: the
    queue needs admission control ``concurrent.futures`` lacks)."""

    __slots__ = ("_event", "_lock", "_state", "_value", "_exception",
                 "_callbacks", "trace")

    def __init__(self):
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._state = _PENDING
        self._value = None
        self._exception = None
        self._callbacks = []
        # The QueryTrace attached by the search path (None for plain
        # submissions or when tracing is disabled); the HTTP layer
        # reads it back to add the request-level span and return the
        # query id to the client.
        self.trace = None

    @classmethod
    def resolved(cls, value):
        """An already-completed future (the cache-hit fast path)."""
        future = cls()
        future.set_result(value)
        return future

    # -- state transitions (engine side) --------------------------------
    def set_running(self):
        """Claim the job (run-once CAS); False when already claimed,
        cancelled or done."""
        with self._lock:
            if self._state != _PENDING:
                return False
            self._state = _RUNNING
            return True

    def set_result(self, value):
        """Resolve the future with ``value`` (no-op when cancelled)."""
        with self._lock:
            if self._state == _CANCELLED:
                return
            self._value = value
            self._state = _DONE
        self._finish()

    def set_exception(self, exc):
        """Resolve the future with an exception (no-op when
        cancelled)."""
        with self._lock:
            if self._state == _CANCELLED:
                return
            self._exception = exc
            self._state = _DONE
        self._finish()

    def _finish(self):
        self._event.set()
        with self._lock:
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    # -- caller side ----------------------------------------------------
    def add_done_callback(self, fn):
        """Call ``fn(future)`` once this future is done -- at once,
        on the calling thread, when it already is."""
        with self._lock:
            if self._state in (_PENDING, _RUNNING):
                self._callbacks.append(fn)
                return
        fn(self)

    def cancel(self):
        """Cancel if not yet running; returns whether it worked."""
        with self._lock:
            if self._state != _PENDING:
                return False
            self._state = _CANCELLED
        self._finish()
        return True

    def cancelled(self):
        """Whether the job was cancelled before it ran."""
        return self._state == _CANCELLED

    def done(self):
        """Whether the job finished (result, exception or cancel)."""
        return self._state in (_DONE, _CANCELLED)

    def result(self, timeout=None):
        """Block for the value; raises the job's exception, or
        :class:`QueryTimeoutError` when ``timeout`` elapses first."""
        if not self._event.wait(timeout):
            raise QueryTimeoutError(
                "query did not finish within {:.3f}s".format(timeout))
        if self._state == _CANCELLED:
            raise QueryCancelledError("query was cancelled")
        if self._exception is not None:
            raise self._exception
        return self._value


class _Job:
    __slots__ = ("fn", "args", "kwargs", "future", "op", "deadline",
                 "submitted_at", "trace")

    def __init__(self, fn, args, kwargs, op, deadline, trace=None):
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.future = EngineFuture()
        self.future.trace = trace
        self.op = op
        self.deadline = deadline
        self.submitted_at = time.perf_counter()
        self.trace = trace


_SHUTDOWN = object()

# How long an idle admission worker blocks on the queue before
# re-checking that its engine still exists (see _engine_worker).
_WORKER_IDLE_POLL = 0.5


def _engine_worker(engine_ref, work_queue):
    """Admission-worker loop, deliberately *outside* the engine.

    Running threads are GC roots, so a ``target=self._worker`` thread
    would pin its engine (and therefore every published shared-memory
    segment) for the life of the process.  The loop instead holds only
    a weakref plus the queue: an engine dropped without ``shutdown()``
    becomes collectable, its index manager's finalizer releases the
    payload segments, and the orphaned workers notice on their next
    idle poll and exit."""
    while True:
        try:
            job = work_queue.get(timeout=_WORKER_IDLE_POLL)
        except queue.Empty:
            if engine_ref() is None:
                return
            continue
        if job is _SHUTDOWN:
            return
        engine = engine_ref()
        if engine is None:
            job.future.set_exception(CExplorerError(
                "query engine was discarded with jobs still queued"))
            return
        try:
            engine._run_job(job)
        finally:
            # Unbind before blocking on the next get(): a job whose
            # fn is a bound method would otherwise keep the engine
            # strongly reachable from this frame.
            del engine, job


class QueryEngine:
    """Bounded-concurrency execution front-end for a CExplorer.

    ``explorer`` may be ``None`` for a bare worker pool (the batch
    harness hands it plain callables); with an explorer attached,
    :meth:`search` adds planning, result caching, and index reuse.
    """

    def __init__(self, explorer=None, workers=2, max_queue=64,
                 default_timeout=None, cache_size=512,
                 index_manager=None, backend="thread",
                 trace_capacity=256, slow_query_seconds=1.0,
                 tracing_enabled=True, faults=None, store=None):
        if workers < 1:
            raise ValueError("workers must be positive")
        if max_queue < 1:
            raise ValueError("max_queue must be positive")
        self.explorer = explorer
        self.workers = workers
        self.max_queue = max_queue
        self.default_timeout = default_timeout
        self.backend = validate_backend(backend)
        self.indexes = index_manager if index_manager is not None \
            else IndexManager()
        self.cache = ResultCache(cache_size)
        # Optional persistent warm store: result-cache entries spill
        # to disk on eviction/shutdown and readmit lazily, keyed
        # ``(graph, version, query)`` -- see repro.engine.payloads.
        self.store = store
        if store is not None:
            self.cache.spill = payload_plane.ResultSpill(
                store, self._graph_version, self._rebind_wires)
        self.stats = EngineStats()
        from repro.engine.batching import SingleFlight
        self.flights = SingleFlight(self.stats)
        # Fault injection (None in production unless REPRO_FAULT_PLAN
        # is set -- the CI chaos job's hook) and the resilience plane:
        # retry policies, the process breaker, payload quarantine.
        self.faults = faults if faults is not None \
            else FaultPlan.from_env()
        self.resilience = ResiliencePlane(self.stats)
        self._span_hook = None
        if self.faults is not None and self.faults.has_span_rules():
            self._span_hook = self.faults.span_fault
            tracing.set_fault_hook(self._span_hook)
        self.tracer = TraceRecorder(capacity=trace_capacity,
                                    slow_seconds=slow_query_seconds,
                                    enabled=tracing_enabled)
        self._queue = queue.Queue(max_queue)
        self._threads = []
        self._in_flight = 0
        self._lifecycle = threading.Lock()
        self._shutdown = False
        self._process = None
        self._last_detect_parallelism = 0
        if self.backend == "process":
            self._process = ProcessBackend(workers)
        self.indexes.subscribe(self._on_index_event)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def configure(self, workers=None, max_queue=None,
                  default_timeout=None, backend=None):
        """Adjust pool sizing / backend before the first submission."""
        with self._lifecycle:
            if self._threads:
                raise RuntimeError(
                    "cannot reconfigure a started engine")
            if workers is not None:
                if workers < 1:
                    raise ValueError("workers must be positive")
                self.workers = workers
            if max_queue is not None:
                if max_queue < 1:
                    raise ValueError("max_queue must be positive")
                self.max_queue = max_queue
                self._queue = queue.Queue(max_queue)
            if default_timeout is not None:
                self.default_timeout = default_timeout
            if backend is not None and backend != self.backend:
                self.backend = validate_backend(backend)
                if self._process is not None:
                    self._process.close()
                    self._process = None
                if self.backend == "process":
                    self._process = ProcessBackend(self.workers)
        return self

    def _ensure_started(self):
        if self._threads:
            return
        with self._lifecycle:
            if self._threads or self._shutdown:
                return
            engine_ref = weakref.ref(self)
            for i in range(self.workers):
                thread = threading.Thread(
                    target=_engine_worker, args=(engine_ref, self._queue),
                    name="query-engine-{}".format(i), daemon=True)
                thread.start()
                self._threads.append(thread)

    def shutdown(self, wait=True):
        """Stop accepting work and (optionally) join the workers.

        Also flushes warm state out and zero-copy state away: cached
        results spill to the store (so a restarted server readmits
        them), and every payload segment is released -- a clean
        shutdown leaves zero shared-memory segments behind.
        """
        if self._span_hook is not None:
            tracing.clear_fault_hook(self._span_hook)
        with self._lifecycle:
            if self._shutdown:
                return
            self._shutdown = True
            threads = list(self._threads)
            process, self._process = self._process, None
        if process is not None:
            process.close()
        self.cache.flush_spill()
        release = getattr(self.indexes, "release_payloads", None)
        if release is not None:
            release()
        for _ in threads:
            self._queue.put(_SHUTDOWN)
        if wait:
            for thread in threads:
                thread.join()

    # ------------------------------------------------------------------
    # generic submission
    # ------------------------------------------------------------------
    def submit(self, fn, *args, **kwargs):
        """Queue ``fn(*args, **kwargs)``; returns an
        :class:`EngineFuture`.

        Keyword-only extras: ``op`` labels the latency histogram,
        ``timeout`` sets the deadline (falls back to
        ``default_timeout``), ``trace`` attaches a
        :class:`~repro.engine.tracing.QueryTrace` that the executing
        worker will activate and finish.  Raises
        :class:`EngineBusyError` at once when the queue is full.
        """
        op = kwargs.pop("op", "job")
        timeout = kwargs.pop("timeout", self.default_timeout)
        trace = kwargs.pop("trace", None)
        if self._shutdown:
            self.tracer.finish(trace, "rejected")
            raise EngineBusyError("engine is shut down")
        self._ensure_started()
        deadline = (time.perf_counter() + timeout
                    if timeout is not None else None)
        job = _Job(fn, args, kwargs, op, deadline, trace=trace)
        self.stats.count("submitted")
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            self.stats.count("rejected")
            self.tracer.finish(trace, "rejected")
            raise EngineBusyError(
                "engine queue full ({} waiting); retry later"
                .format(self.max_queue)) from None
        return job.future

    def execute(self, fn, *args, **kwargs):
        """Synchronous :meth:`submit`: block for the result, honouring
        the same deadline while waiting."""
        timeout = kwargs.get("timeout", self.default_timeout)
        return self.wait(self.submit(fn, *args, **kwargs), timeout)

    def wait(self, future, timeout):
        """Block on ``future`` with deadline enforcement.  A timed-out
        future is cancelled (a queued job nobody else waits for is
        dropped without running) and counted."""
        try:
            return future.result(timeout)
        except QueryTimeoutError:
            future.cancel()
            self.stats.count("timeouts")
            raise

    def run_batch(self, calls, op="batch", timeout=None):
        """Submit many ``(fn, args, kwargs)`` triples and gather.

        Returns results in submission order; a call that raised yields
        its exception object instead (the batch harness decides how to
        aggregate failures).  Jobs the queue rejects are executed
        inline -- the batch caller wants throughput, not load shedding.
        """
        futures = []
        for fn, args, kwargs in calls:
            try:
                futures.append(self.submit(fn, *args, op=op,
                                           timeout=timeout, **kwargs))
            except EngineBusyError:
                try:
                    futures.append(EngineFuture.resolved(
                        fn(*args, **kwargs)))
                except Exception as exc:
                    failed = EngineFuture()
                    failed.set_exception(exc)
                    futures.append(failed)
        results = []
        for future in futures:
            try:
                results.append(future.result(timeout))
            except Exception as exc:
                results.append(exc)
        return results

    # ------------------------------------------------------------------
    # the search path
    # ------------------------------------------------------------------
    def search(self, algorithm, vertex, k=4, keywords=None,
               timeout=None, **params):
        """Plan + cache + submit one community search.

        Cache hits resolve immediately without touching the queue, so
        a warm interactive workload is never throttled by admission
        control.  Requires an attached explorer.

        Cache misses are single-flight: concurrent calls with the same
        result-cache key at the same index version share one
        execution, each caller holding its own future (see
        :mod:`repro.engine.batching`).  Calls that bypass the cache
        (``use_cache=False`` or extra ``params``) always run alone.

        Cache misses record a :class:`~repro.engine.tracing.
        QueryTrace` (unless the recorder is disabled), attached to the
        returned future as ``future.trace`` and handed to the
        executing worker through the job; callers sharing a flight
        share its trace.  Cache *hits* deliberately skip tracing: a
        hit is answered in microseconds and the full trace lifecycle
        (allocation, locks, ring publish) would multiply its cost --
        and traces exist to attribute slow queries, which a warm hit
        never is.  ``future.trace`` is ``None`` on the hit path.
        """
        explorer = self._require_explorer()
        probe_started = time.perf_counter()
        key = explorer.search_key(algorithm, vertex, k=k,
                                  keywords=keywords, **params)
        if key is not None:
            cached = explorer.cache.get(key, record_miss=False)
            if cached is not None:
                return EngineFuture.resolved(cached)

        def start():
            trace = self.tracer.begin("search", algorithm=algorithm,
                                      vertex=str(vertex), k=k)
            if trace is not None:
                trace.tag(cache="miss")
                # The pre-submit plan + cache probe, measured cheaply
                # outside any trace context and attached post hoc.
                trace.add_span("cache_lookup",
                               time.perf_counter() - probe_started,
                               parent=None, tags={"hit": False})
            return self.submit(explorer.search, algorithm, vertex, k=k,
                               keywords=keywords, op="search",
                               timeout=timeout, trace=trace, **params)

        if key is None:
            return start()
        return self.flights.submit((key, self.indexes.version(key[0])),
                                   start)

    def search_sync(self, algorithm, vertex, k=4, keywords=None,
                    timeout=None, **params):
        """Blocking :meth:`search` with deadline enforcement."""
        timeout = timeout if timeout is not None else self.default_timeout
        return self.wait(self.search(algorithm, vertex, k=k,
                                     keywords=keywords, timeout=timeout,
                                     **params), timeout)

    def _require_explorer(self):
        if self.explorer is None:
            raise RuntimeError(
                "this QueryEngine has no attached explorer; "
                "use submit()/execute() with explicit callables")
        return self.explorer

    # ------------------------------------------------------------------
    # job dispatch
    # ------------------------------------------------------------------
    def run_jobs(self, jobs, op="job"):
        """Run picklable ``(fn, args)`` jobs; returns their results in
        job order.

        Under the process backend the jobs run in the pool -- unless
        the process breaker is open, in which case (and on the thread
        backend) they run serially on the calling thread.  A pool that
        dies mid dispatch records a breaker failure and the jobs re-run
        in-process: results are identical, only the parallelism
        differs.  On the process path each job individually retries
        transient failures with backoff (capped by the caller's
        remaining deadline, which also ships into the worker for
        cooperative self-cancellation), an unpicklable job runs on the
        calling thread without disturbing the others, and a corrupt
        payload is quarantined.  Child compute time is recorded under
        ``op``, transport overhead under the ``shard_ipc`` latency op.
        """
        jobs = list(jobs)
        deadline = self._job_deadline()
        # One fault draw per job for the whole dispatch -- wherever
        # the job ends up running, the injection stream stays aligned
        # with the (op, invocation) counter, so a plan replays
        # identically whatever the breaker is doing.
        faults = [self.faults.draw(op) if self.faults is not None
                  else None for _ in jobs]
        if self._process is not None and self.resilience.admit_process():
            try:
                results = self._run_jobs_process(jobs, faults, op,
                                                 deadline)
            except ProcessBackendError:
                self.stats.count("process_fallbacks")
                self.resilience.record_process(False)
            else:
                self.resilience.record_process(True)
                return results
        results = []
        for i, (fn, args) in enumerate(jobs):
            start = time.perf_counter()
            with tracing.span("worker_execute", shard=i,
                              backend="inline"):
                results.append(self._run_serial(fn, args, op, i,
                                                deadline, faults[i]))
            self.stats.observe(op, time.perf_counter() - start)
        return results

    # -- the process pool -----------------------------------------------
    def _run_jobs_process(self, jobs, faults, op, deadline):
        pool = self._process
        policy = self.resilience.policy(op)
        trace = tracing.current_trace()
        wall = self._wall_deadline(deadline)
        submitted = []
        for i, (fn, args) in enumerate(jobs):
            actions = faults[i]
            try:
                future = pool.submit_job(
                    fn, self._apply_parent_faults(actions, args),
                    fault=fault_injection.worker_actions(actions),
                    deadline=wall)
            except JobPayloadError:
                # This job cannot ship; run it on this thread later,
                # leave the pool (and every other job) alone.
                future = None
            done_at = []
            if future is not None:
                # Timestamp completion on the parent's clock (the
                # callback runs in the pool's result-handler thread):
                # the jobs are collected in order, so "collection
                # time minus child" would charge sibling compute skew
                # to ``shard_ipc``; the done timestamp does not.
                future.add_done_callback(
                    lambda _f, _box=done_at:
                        _box.append(time.perf_counter()))
            submitted.append((time.perf_counter(), future, done_at))
        results = []
        try:
            for i, (started, future, done_at) in enumerate(submitted):
                fn, args = jobs[i]
                if future is None:
                    child, spans, value = self._run_job_inline(
                        fn, args, op, i, deadline, faults[i])
                    ipc = 0.0
                else:
                    try:
                        child, spans, value, started = \
                            self._collect_with_retries(
                                pool, future, fn, args, op, i, started,
                                deadline, wall, policy)
                        # Prefer the done-callback timestamp; a retry
                        # that won on a resubmitted future (whose
                        # completion the callback never saw) falls
                        # back to now.
                        now = time.perf_counter()
                        done = next((t for t in done_at
                                     if t >= started), now)
                        ipc = max(done - started - child, 0.0)
                    except JobPayloadError:
                        # Pickling failed in the pool's feeder thread
                        # (surfaces on the future, not at submit):
                        # same escape hatch, pool and siblings intact.
                        child, spans, value = self._run_job_inline(
                            fn, args, op, i, deadline, faults[i])
                        ipc = 0.0
                # Payload resolution inside the worker (the
                # ``index_thaw`` spans: unpickling a shipped blob, or
                # attaching a shared segment) is transport cost, not
                # query compute -- fold it into ``shard_ipc`` so the
                # stat honestly prices what the chosen transport pays
                # and the op histogram prices only the algorithm.
                thaw = min(child, sum(
                    s[2] for s in spans if s[0] == "index_thaw"))
                self.stats.observe(op, child - thaw)
                self.stats.observe("shard_ipc", ipc + thaw)
                if trace is not None:
                    index = trace.add_span(
                        "worker_execute", child,
                        tags={"shard": i, "backend": "process"})
                    trace.graft(index, spans)
                    trace.add_span("shard_ipc", ipc + thaw,
                                   tags={"shard": i})
                results.append(value)
        except BaseException:
            # Don't leave the rest of the dispatch running for nobody:
            # cancel what has not started (running jobs self-cancel
            # at their next cooperative deadline check).
            for _, later, _ in submitted[len(results):]:
                if later is not None:
                    later.cancel()
            raise
        return results

    def _collect_with_retries(self, pool, future, fn, args, op, index,
                              started, deadline, wall, policy):
        """One process job's result, absorbing transient failures up
        to the policy's budget (and never past the deadline).  Returns
        ``(child_seconds, spans, value, started)`` where ``started``
        is the winning attempt's submission time."""
        attempt = 1
        while True:
            try:
                child, spans, value = pool.job_result(
                    future, self._remaining(deadline))
                return child, spans, value, started
            except RETRYABLE as exc:
                self._quarantine_if_corrupt(exc)
                delay = self._retry_delay(policy, op, index, attempt,
                                          deadline, exc)
                time.sleep(delay)
                attempt += 1
                started = time.perf_counter()
                # Retry with the *original* args: parent-side fault
                # mutations (corruption) were one-shot on the copy.
                future = pool.submit_job(fn, args, deadline=wall)

    # -- the calling thread -----------------------------------------------
    def _run_serial(self, fn, args, op, index, deadline, actions):
        """Run ``fn(*args)`` on the calling thread under the job
        policy: the dispatch's pre-drawn faults fire as they would in
        a worker (corruption and pool-break are serialisation/pool
        faults and do not apply in-process), the caller's deadline is
        visible through the cooperative check, and transient failures
        retry with backoff within the deadline."""
        policy = self.resilience.policy(op)
        fault = fault_injection.worker_actions(actions)
        wall = self._wall_deadline(deadline)
        attempt = 1
        while True:
            set_job_deadline(wall)
            try:
                fault_injection.apply_worker_actions(fault)
                value = fn(*args)
                if fault_injection.wants_duplicate(fault):
                    value = fn(*args)
                return value
            except RETRYABLE as exc:
                self._quarantine_if_corrupt(exc)
                delay = self._retry_delay(policy, op, index, attempt,
                                          deadline, exc)
                time.sleep(delay)
                attempt += 1
                fault = None  # injected faults are one-shot
            finally:
                set_job_deadline(None)

    def _retry_delay(self, policy, op, index, attempt, deadline, exc):
        """The backoff before retrying a failed job, counted and
        traced; re-raises ``exc`` (counted as exhausted) when the
        policy's attempts are spent or the backoff would outlive the
        deadline.  Called from the ``except`` block handling ``exc``."""
        delay = policy.backoff(attempt, token="{}:{}".format(op, index))
        if attempt >= policy.attempts or (
                deadline is not None
                and time.perf_counter() + delay >= deadline):
            self.stats.count("retry_exhausted")
            raise exc
        self.stats.count("retries")
        tracing.add_span("retry", delay, op=op, shard=index,
                         attempt=attempt, error=type(exc).__name__)
        return delay

    def _job_deadline(self):
        """The executing job's deadline (perf_counter based), falling
        back to ``default_timeout`` from now -- the budget every
        retry and shipped worker deadline lives within."""
        deadline = getattr(_job_context, "deadline", None)
        if deadline is not None:
            return deadline
        if self.default_timeout is not None:
            return time.perf_counter() + self.default_timeout
        return None

    @staticmethod
    def _remaining(deadline):
        if deadline is None:
            return None
        return max(deadline - time.perf_counter(), 0.0)

    @staticmethod
    def _wall_deadline(deadline):
        """Translate a perf_counter deadline to the wall clock (what
        crosses the process boundary)."""
        if deadline is None:
            return None
        return time.time() + max(deadline - time.perf_counter(), 0.0)

    def _apply_parent_faults(self, actions, args):
        """Fire parent-side fault actions at the dispatch site:
        ``pool_break`` fails the submission as a dead pool would,
        ``corrupt`` poisons each shipped payload -- a flipped byte in
        a pickled blob, a detectably-corrupted locator for a
        zero-copy ref (both on copies: retries resubmit the pristine
        original) -- and ``segment_loss`` unlinks the shared-memory
        segment a ref points at *in place*, simulating a torn
        attachment the worker only discovers at attach time."""
        if not actions:
            return args
        for kind, _ in actions:
            if kind == "pool_break":
                raise ProcessBackendError(
                    "fault injection broke the process pool")
            if kind == "corrupt":
                args = tuple(
                    fault_injection.corrupt_blob(value)
                    if isinstance(value, (bytes, bytearray))
                    else payload_plane.corrupt_ref(value)
                    if payload_plane.is_ref(value) else value
                    for value in args)
            if kind == "segment_loss":
                for value in args:
                    if payload_plane.is_ref(value):
                        payload_plane.lose_segment(value)
        return args

    def _run_job_inline(self, fn, args, op, index, deadline, actions):
        """One unshippable job on the calling thread: same timing/span
        contract as a worker."""
        self.stats.count("job_inline_fallbacks")
        start = time.perf_counter()
        with tracing.collect_worker_spans() as log:
            value = self._run_serial(fn, args, op, index, deadline,
                                     actions)
        return time.perf_counter() - start, log.wire(), value

    def _graph_version(self, name):
        """Current index-manager version of ``name``, or ``None`` when
        the graph is not registered (spill entries for it are then
        unaddressable and simply skipped)."""
        try:
            return self.indexes.version(name)
        except CExplorerError:
            return None

    def _rebind_wires(self, name, wires):
        """Rebind wire-format communities spilled to disk back onto
        the live registered graph object."""
        graph = self.indexes.graph(name)
        return [Community.from_wire(graph, wire) for wire in wires]

    def _quarantine_if_corrupt(self, exc):
        """Quarantine the payload a corruption error names: the
        resilience plane remembers the identity (so the event is
        visible) and the index manager drops its cached copy (so the
        next query re-freezes from the live graph).  Corruption never
        feeds the breaker -- one poisoned payload must not condemn
        the backend for every other graph."""
        if not isinstance(exc, PayloadCorruptionError):
            return
        key = exc.key
        if key is None:
            return
        if self.resilience.quarantine(key):
            discard = getattr(self.indexes, "discard_payload", None)
            if discard is not None:
                discard(key)

    # ------------------------------------------------------------------
    # whole-query worker execution
    # ------------------------------------------------------------------
    def full_query_capable(self, name):
        """Whether whole-query worker execution pays for ``name``.

        True under the process backend (the pipeline is what lets a
        query escape the GIL entirely) and whenever a current frozen
        payload is already cached (the snapshot cost is sunk, so even
        the thread backend profits from the CSR fast paths).
        """
        if self.backend == "process":
            return True
        ready = getattr(self.indexes, "full_payload_ready", None)
        return bool(ready is not None and ready(name))

    def _with_fresh_payload_retry(self, run):
        """Run a payload-backed dispatch, retrying once from a freshly
        frozen payload when corruption escaped the per-job retries.
        The quarantine hook already discarded the cached copy, so the
        inner ``run`` re-freezes from the live graph -- the one
        recovery that helps when the cached bytes themselves (not a
        transient transport) are what is poisoned."""
        try:
            return run()
        except PayloadCorruptionError:
            self.stats.count("payload_retries")
            return run()

    def _full_payload_job_arg(self, name):
        """``(payload, job payload argument)`` for graph ``name``:
        a zero-copy locator (or pickled blob, if the payload plane
        fell back) when jobs ship to worker processes, the snapshot
        object itself when they run in-process (no serialisation hop
        to pay)."""
        payload, fresh = self.indexes.full_payload(name)
        if fresh:
            self.stats.observe("snapshot_build", payload.build_seconds)
        arg = payload.job_arg() if self._process is not None \
            else payload.frozen
        return payload, arg

    def search_full_query(self, name, algorithm, q, k, keywords=None):
        """Run one whole community search against the cached frozen
        payload of graph ``name`` -- in a worker process under the
        process backend, in-process (same pipeline, same results)
        otherwise.  Returns live :class:`~repro.core.community.
        Community` objects bound to the registered graph.
        """
        from repro.engine.backends import shard_full_query_job

        def run():
            payload, arg = self._full_payload_job_arg(name)
            return self.run_jobs(
                [(shard_full_query_job,
                  (payload.key, arg, algorithm, q, k, keywords))],
                op="full_query")
        wires = self._with_fresh_payload_retry(run)
        self.stats.count("worker_full_query")
        graph = self.indexes.graph(name)
        return [Community.from_wire(graph, wire) for wire in wires[0]]

    def detect(self, name, algorithm, params=None, per_component=False):
        """Run one whole-graph CD detection on the frozen payload.

        With ``per_component=True`` the detection runs as one job per
        connected component (each carves its induced frozen subgraph
        from the cached payload; the jobs share the pool under the
        process backend and run one after another otherwise); results
        are the concatenation in component order.  Connected graphs degrade
        to the single whole-graph job, whose result is byte-identical
        to inline detection (the frozen equivalence the protocol
        suite proves).  Per-component execution is a *different,
        deterministic plan*: component-local algorithm state (RNG
        sweeps, TF-IDF document frequencies) sees one component
        instead of the union, which only coincides with whole-graph
        output when the graph is connected.
        """
        from repro.engine.backends import component_detect_job

        graph = self.indexes.graph(name)
        wire_params = tuple(sorted(dict(params or {}).items()))
        components = [None]
        if per_component:
            components = sorted(
                tuple(sorted(component))
                for component in graph.connected_components())
            if len(components) == 1:
                components = [None]
        self.stats.count("detect_runs")
        self.stats.count("detect_jobs", len(components))
        self._last_detect_parallelism = len(components)

        def run():
            payload, arg = self._full_payload_job_arg(name)
            jobs = [(component_detect_job,
                     (payload.key, arg, algorithm, component,
                      wire_params))
                    for component in components]
            return self.run_jobs(jobs, op="detect")
        wires = self._with_fresh_payload_retry(run)
        communities = []
        for wire_list in wires:
            communities.extend(Community.from_wire(graph, wire)
                               for wire in wire_list)
        return communities

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _on_index_event(self, name, version, affected,
                        truss_affected=None):
        """Index version bump: evict stale results.

        ``affected`` scopes eviction for the minimum-degree families,
        ``truss_affected`` (reported by an attached truss maintainer)
        for the triangle families; either being ``None`` makes its
        families' eviction conservative.
        """
        self.cache.invalidate(name, affected=affected,
                              truss_affected=truss_affected)

    def _run_job(self, job):
        """Claim and execute one admitted job (called from the
        weakref-holding :func:`_engine_worker` loop)."""
        future = job.future
        trace = job.trace
        if not future.set_running():
            # Cancelled by the caller while queued.
            self.stats.count("cancelled")
            self.tracer.finish(trace, "cancelled")
            return
        queue_wait = time.perf_counter() - job.submitted_at
        if (job.deadline is not None
                and time.perf_counter() > job.deadline):
            self.stats.count("timeouts")
            if trace is not None:
                trace.add_span("queue_wait", queue_wait,
                               parent=None)
                self.tracer.finish(trace, "timeout")
            future.set_exception(QueryTimeoutError(
                "query spent its deadline waiting in the queue"))
            return
        if trace is not None:
            trace.add_span("queue_wait", queue_wait, parent=None)
        with self._lifecycle:
            self._in_flight += 1
        start = time.perf_counter()
        _job_context.deadline = job.deadline
        try:
            with tracing.activate(trace), \
                    tracing.span("execute", op=job.op):
                result = job.fn(*job.args, **job.kwargs)
        except BaseException as exc:
            self.stats.count("errors")
            self.tracer.finish(trace, "error")
            future.set_exception(exc)
        else:
            self.stats.count("completed")
            self.tracer.finish(trace, "ok")
            future.set_result(result)
        finally:
            _job_context.deadline = None
            elapsed = time.perf_counter() - start
            self.stats.observe(job.op, elapsed)
            with self._lifecycle:
                self._in_flight -= 1

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def queue_depth(self):
        """How many submitted jobs are waiting for a worker."""
        return self._queue.qsize()

    @property
    def accepting(self):
        """Whether :meth:`submit` would admit a query right now --
        the readiness probe's signal (not shut down, queue not at the
        admission-control ceiling)."""
        if self._shutdown:
            return False
        return self._queue.qsize() < self.max_queue

    def snapshot(self):
        """Everything ``/v1/metrics`` reports about the engine."""
        doc = self.stats.snapshot()
        doc.update({
            "backend": self.backend,
            # Whole-query worker execution: how many searches ran
            # end-to-end on a frozen payload, and how wide the last
            # CD detection fanned out per component.
            "worker_full_query": self.stats.get("worker_full_query"),
            "detect_parallelism": {
                "last_jobs": self._last_detect_parallelism,
                "runs": self.stats.get("detect_runs"),
                "jobs": self.stats.get("detect_jobs"),
            },
            "workers": self.workers,
            "started": bool(self._threads),
            "queue_depth": self.queue_depth,
            "max_queue": self.max_queue,
            "in_flight": self._in_flight,
            "cache": self.cache.stats(),
            "truss": self.indexes.truss_stats(),
            "traces": self.tracer.stats(),
            "resilience": self.resilience.snapshot(faults=self.faults),
            "payloads": payload_plane.plane_stats(),
        })
        if self.explorer is not None:
            doc["indexes"] = {name: self.indexes.stats(name)
                              for name in self.indexes.names()}
        return doc
