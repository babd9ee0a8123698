"""Exception hierarchy for the C-Explorer reproduction.

Every error raised deliberately by the library derives from
:class:`CExplorerError`, so callers embedding the system (e.g. the HTTP
server in :mod:`repro.server`) can catch one type and translate it into
a user-facing message, exactly as the original system reports query
problems back to the browser.
"""


class CExplorerError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphFormatError(CExplorerError):
    """An uploaded/parsed graph file is malformed."""


class UnknownVertexError(CExplorerError, KeyError):
    """A query referenced a vertex name or id not present in the graph."""

    def __init__(self, vertex):
        super().__init__(vertex)
        self.vertex = vertex

    def __str__(self):
        return "unknown vertex: {!r}".format(self.vertex)


class QueryError(CExplorerError, ValueError):
    """A query had invalid parameters (bad k, empty keyword set, ...)."""


class EngineError(CExplorerError):
    """Base class for query-execution-engine failures."""


class EngineBusyError(EngineError):
    """Admission control rejected the request: the queue is full.

    The HTTP layer translates this into a fast 429 so overload sheds
    load instead of stacking threads.
    """


class QueryTimeoutError(EngineError):
    """A submitted query exceeded its deadline."""


class QueryCancelledError(EngineError):
    """A submitted query was cancelled before it ran."""


class WorkerKilledError(EngineError):
    """A worker died (or was killed by fault injection) mid-job.

    The job itself is idempotent, so the retry policy treats this as
    transient: the engine re-runs the job with backoff instead of
    failing the query.
    """


class FaultInjectedError(EngineError):
    """An error raised deliberately by an active
    :class:`~repro.engine.faults.FaultPlan` (``error`` rules firing
    inside spans or job dispatch).  Retryable, like any transient
    worker failure."""


class PayloadCorruptionError(EngineError):
    """A shipped payload failed to unpickle in the worker.

    Carries the payload ``key`` so the engine can quarantine exactly
    the ``(graph, version)`` payload at fault instead of condemning
    the whole backend -- corruption is a *data* problem, pool death an
    *infrastructure* problem, and the circuit breaker only cares about
    the latter.
    """

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key

    def __reduce__(self):
        return (self.__class__, (self.args[0], self.key))


class JobPayloadError(EngineError):
    """A single job's payload would not pickle for process shipping.

    Unlike :class:`~repro.engine.backends.ProcessBackendError` this
    fails only the offending job -- the pool stays up and sibling jobs
    keep running (the unpicklable payload will not become picklable on
    a fresh pool).
    """

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key

    def __reduce__(self):
        return (self.__class__, (self.args[0], self.key))


class UnknownAlgorithmError(CExplorerError, KeyError):
    """An algorithm name was not found in the plug-in registry."""

    def __init__(self, name, known=()):
        super().__init__(name)
        self.name = name
        self.known = tuple(known)

    def __str__(self):
        msg = "unknown algorithm: {!r}".format(self.name)
        if self.known:
            msg += " (registered: {})".format(", ".join(sorted(self.known)))
        return msg
