"""Single-flight dedup: concurrent identical cache misses share one
execution.

A server handling concurrent traffic sees the same expensive query
many times in flight at once: eight users probing the same hub author
all miss the result cache (none of them has finished yet, so none has
filled it), and without coordination all eight pay the full search --
the thundering herd.  :class:`SingleFlight` makes the first caller the
*leader*, whose job runs on the engine, and every concurrent caller
with the same key a *follower* that waits on that job; each follower
answered this way counts as one ``shared_answers``.

Every caller gets its own future.  One caller giving up (a timed-out
request cancels its future) never cancels the shared job for the
others: the job is cancelled only once every caller has cancelled,
which keeps the lone-caller behaviour of a plain engine submission (a
timed-out queued query is dropped without running).

:meth:`~repro.engine.executor.QueryEngine.search` keys flights by the
result-cache key plus the graph's index version, so a follower never
receives an answer computed before a write it was admitted after.

``QueryBatcher`` is an alias of :class:`SingleFlight`:
``perfbench/layers.py`` wraps ``QueryBatcher.submit``, and the
benchmark's files are revised separately from the engine.
"""

import functools
import threading

from repro.engine.executor import EngineFuture

__all__ = ["QueryBatcher", "SingleFlight"]


class _Flight:
    """One in-flight job and the futures of everyone waiting on it
    (the leader's first)."""

    __slots__ = ("job", "futures")

    def __init__(self, job):
        self.job = job
        self.futures = []


class _CallerFuture(EngineFuture):
    """One caller's view of a shared flight: cancelling it leaves the
    flight instead of cancelling the shared job."""

    __slots__ = ("_owner", "_flight")

    def __init__(self, owner, flight):
        super().__init__()
        self._owner = owner
        self._flight = flight
        self.trace = flight.job.trace

    def cancel(self):
        if not super().cancel():
            return False
        self._owner._leave(self._flight)
        return True


class SingleFlight:
    """Deduplicates concurrent jobs by key; ``stats`` (an
    :class:`~repro.engine.stats.EngineStats`) receives the
    ``shared_answers`` counter."""

    def __init__(self, stats):
        self.stats = stats
        self._flights = {}
        # Re-entrant: settling a flight can run inline from a cancel
        # or a callback registration made while the lock is held.
        self._lock = threading.RLock()

    def submit(self, key, start):
        """A future for the job under ``key``; ``start()`` submits the
        job (returning its future) when none is in flight.  An error
        raised by ``start`` (a full queue) reaches this caller alone
        and leaves no flight behind."""
        with self._lock:
            flight = self._flights.get(key)
            leader = flight is None
            if leader:
                flight = _Flight(start())
                self._flights[key] = flight
            future = _CallerFuture(self, flight)
            flight.futures.append(future)
            if leader:
                # After the leader's future is registered: a job that
                # already finished settles it right here.
                flight.job.add_done_callback(
                    functools.partial(self._settle, key, flight))
        return future

    def _settle(self, key, flight, job):
        """Hand the finished job's outcome to every waiting caller."""
        with self._lock:
            if self._flights.get(key) is flight:
                del self._flights[key]
            # Emptied, not copied: the caller futures point back at
            # the flight, and the cycle would keep the answer alive
            # until the cyclic collector ran.
            futures, flight.futures = flight.futures, []
        try:
            value = job.result(0)
        except BaseException as exc:
            # The job's stored outcome, whatever its class: forwarded
            # to the callers, never raised on this thread.
            for future in futures:
                future.set_exception(exc)
            return
        shared = sum(1 for future in futures[1:]
                     if not future.cancelled())
        for future in futures:
            future.set_result(value)
        if shared:
            self.stats.count("shared_answers", shared)

    def _leave(self, flight):
        """A caller cancelled; cancel the job once nobody waits."""
        with self._lock:
            if flight.futures and all(future.cancelled()
                                      for future in flight.futures):
                flight.job.cancel()

    def in_flight(self):
        """How many distinct jobs currently have waiting callers."""
        with self._lock:
            return len(self._flights)


QueryBatcher = SingleFlight
