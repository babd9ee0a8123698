"""Retry and circuit-breaking policy: how the engine reacts to
failure instead of propagating it.

Two mechanisms, composed by :meth:`~repro.engine.executor.QueryEngine.
run_jobs`:

* :class:`RetryPolicy` -- per-job-class retry budgets.  Every engine
  job class (``full_query``, ``detect``) is a
  pure function of an immutable frozen payload, so retries are always
  safe; the policy only decides *how many* and *how
  spaced* (capped exponential backoff with deterministic jitter), and
  the remaining-deadline budget always wins -- a retry whose backoff
  would outlive the caller's deadline is not attempted.

* :class:`CircuitBreaker` / :class:`ResiliencePlane` -- the process
  pool's breaker.  Consecutive infrastructure failures (pool death,
  submission failure) open it; while open, jobs skip the pool and run
  serially on the calling thread (no doomed submissions, no fallback
  latency); after a cooldown one *probe* dispatch is let through
  (half-open), and its success promotes the pool back.  Payload
  corruption deliberately does **not** count against the breaker -- a
  poisoned ``(graph, version)`` payload is quarantined individually
  (see ``QueryEngine._quarantine_if_corrupt``) so one bad graph cannot
  condemn an otherwise healthy pool.
"""

import threading
import time
import zlib

from repro.util.errors import (
    FaultInjectedError,
    PayloadCorruptionError,
    WorkerKilledError,
)

#: exceptions a per-job retry may absorb: transient worker failures
#: and injected faults.  Pool death is *not* here -- that is a
#: substrate failure handled by the breaker/fallback ladder, and
#: deadline/cancellation signals always propagate untouched.
RETRYABLE = (WorkerKilledError, FaultInjectedError,
             PayloadCorruptionError)


class RetryPolicy:
    """Retry budget and backoff schedule for one job class."""

    __slots__ = ("attempts", "base_delay", "max_delay")

    def __init__(self, attempts=3, base_delay=0.005, max_delay=0.1):
        self.attempts = int(attempts)
        self.base_delay = float(base_delay)
        self.max_delay = float(max_delay)

    def backoff(self, attempt, token=""):
        """Sleep before retry number ``attempt`` (1-based): capped
        exponential with deterministic jitter in [0, 50%] derived from
        ``token`` -- reproducible under a seeded fault plan, yet
        decorrelated across jobs so a killed fan-out does not retry in
        lockstep."""
        base = min(self.max_delay,
                   self.base_delay * (2 ** (attempt - 1)))
        jitter = (zlib.crc32("{}:{}".format(token, attempt)
                             .encode("utf-8")) % 1000) / 2000.0
        return base * (1.0 + jitter)


#: per-job-class policies; job classes not named here use DEFAULT.
POLICIES = {
    "full_query": RetryPolicy(attempts=3),
    "detect": RetryPolicy(attempts=2),
}

DEFAULT_POLICY = RetryPolicy(attempts=2)


class CircuitBreaker:
    """Closed / open / half-open breaker for the process pool.

    Opens after ``failure_threshold`` consecutive failures *or* when
    the error rate over the last ``window`` outcomes exceeds
    ``error_rate`` (with at least ``failure_threshold`` failures seen),
    stays open for ``cooldown`` seconds, then admits exactly one probe
    (half-open).  The probe's outcome decides: success closes the
    breaker (promotion), failure re-opens it for another cooldown.
    Thread-safe; all timing uses a monotonic clock.
    """

    def __init__(self, name, failure_threshold=3, window=16,
                 error_rate=0.5, cooldown=5.0):
        self.name = name
        self.failure_threshold = int(failure_threshold)
        self.window = int(window)
        self.error_rate = float(error_rate)
        self.cooldown = float(cooldown)
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive = 0
        self._recent = []          # ring of recent outcomes (bools)
        self._next = 0
        self._opened_at = None
        self._probe_inflight = False
        self.opens = 0
        self.probes = 0
        self.promotions = 0
        self._degraded_seconds = 0.0

    @property
    def state(self):
        with self._lock:
            return self._state

    def allow(self):
        """Whether a dispatch may use the pool right now:
        ``True`` (closed), ``"probe"`` (half-open, this caller is the
        probe), or ``False`` (open / probe already in flight)."""
        now = time.monotonic()
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open":
                if now - self._opened_at < self.cooldown:
                    return False
                self._state = "half_open"
                self._probe_inflight = False
            if self._probe_inflight:
                return False
            self._probe_inflight = True
            self.probes += 1
            return "probe"

    def record_success(self):
        with self._lock:
            self._record(True)
            if self._state == "half_open":
                self._degraded_seconds += \
                    time.monotonic() - self._opened_at
                self._opened_at = None
                self._state = "closed"
                self._probe_inflight = False
                self.promotions += 1
            self._consecutive = 0

    def record_failure(self):
        with self._lock:
            self._record(False)
            self._consecutive += 1
            if self._state == "half_open":
                # The probe failed: back to open, clock restarts.
                self._state = "open"
                self._probe_inflight = False
                self._opened_at = time.monotonic()
                return
            if self._state == "closed" and self._should_open():
                self._state = "open"
                self._opened_at = time.monotonic()
                self.opens += 1

    def _record(self, ok):
        if len(self._recent) < self.window:
            self._recent.append(ok)
        else:
            self._recent[self._next] = ok
            self._next = (self._next + 1) % self.window
        return ok

    def _should_open(self):
        if self._consecutive >= self.failure_threshold:
            return True
        failures = sum(1 for ok in self._recent if not ok)
        return (failures >= self.failure_threshold
                and failures / len(self._recent) >= self.error_rate)

    def degraded_seconds(self):
        """Cumulative seconds spent open/half-open (live-inclusive)."""
        with self._lock:
            total = self._degraded_seconds
            if self._opened_at is not None:
                total += time.monotonic() - self._opened_at
            return total

    def snapshot(self):
        with self._lock:
            live = self._degraded_seconds
            if self._opened_at is not None:
                live += time.monotonic() - self._opened_at
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive,
                "opens": self.opens,
                "probes": self.probes,
                "promotions": self.promotions,
                "degraded_seconds": round(live, 6),
            }


class ResiliencePlane:
    """The engine's failure-handling state, gathered in one object:
    the process breaker, the payload quarantine set, and the
    resilience counters the metrics plane exports.  One per
    :class:`~repro.engine.executor.QueryEngine`.
    """

    COUNTER_KEYS = ("retries", "retry_exhausted", "quarantines",
                    "breaker_rejections", "payload_retries",
                    "faults_injected")

    def __init__(self, stats, breaker_cooldown=5.0):
        self.stats = stats
        self.breakers = {
            "process": CircuitBreaker("process",
                                      cooldown=breaker_cooldown),
        }
        self._lock = threading.Lock()
        self._quarantined = set()

    # ------------------------------------------------------------------
    # policies
    # ------------------------------------------------------------------
    @staticmethod
    def policy(op):
        return POLICIES.get(op, DEFAULT_POLICY)

    def admit_process(self):
        """Whether a dispatch may use the process pool now (closed
        breaker, or this caller is the half-open probe); a refusal is
        counted and the jobs run serially on the calling thread."""
        if self.breakers["process"].allow():
            return True
        self.stats.count("breaker_rejections")
        return False

    def record_process(self, ok):
        """Report one process dispatch's outcome to the breaker."""
        if ok:
            self.breakers["process"].record_success()
        else:
            self.breakers["process"].record_failure()

    # ------------------------------------------------------------------
    # quarantine
    # ------------------------------------------------------------------
    def quarantine(self, key):
        """Mark one payload identity as poisoned; returns whether it
        was newly quarantined."""
        with self._lock:
            if key in self._quarantined:
                return False
            self._quarantined.add(key)
        self.stats.count("quarantines")
        return True

    def is_quarantined(self, key):
        with self._lock:
            return key in self._quarantined

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def snapshot(self, faults=None):
        counters = {key: self.stats.get(key)
                    for key in self.COUNTER_KEYS}
        if faults is not None:
            counters["faults_injected"] = faults.injected()
        doc = {
            "counters": counters,
            "breakers": {name: breaker.snapshot()
                         for name, breaker in self.breakers.items()},
            "quarantined": len(self._quarantined),
            "degraded": any(b.state != "closed"
                            for b in self.breakers.values()),
        }
        if faults is not None:
            doc["fault_plan"] = faults.snapshot()
        return doc
