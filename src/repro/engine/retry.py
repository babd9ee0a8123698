"""Retry, hedging and circuit-breaking policy: how the engine reacts
to failure instead of propagating it.

Three mechanisms, composed by the executor's fan-out paths:

* :class:`RetryPolicy` -- per-job-class retry budgets.  Every engine
  job class (``full_query``, ``detect``) is a
  pure function of an immutable frozen payload, so retries are always
  safe; the policy only decides *how many* and *how
  spaced* (capped exponential backoff with deterministic jitter), and
  the remaining-deadline budget always wins -- a retry whose backoff
  would outlive the caller's deadline is not attempted.

* **Hedging** -- a straggler job past the observed p95 of its class
  (times :data:`HEDGE_ALPHA`) gets one duplicate submission; the first
  result wins and the loser is cancelled (best-effort parent-side,
  cooperatively in the worker via the shipped deadline).  Hedging is
  the standard tail-latency answer when a worker stalls rather than
  dies; idempotent jobs make it free of semantic risk.

* :class:`CircuitBreaker` / :class:`ResiliencePlane` -- per-substrate
  breakers implementing the degradation ladder
  ``process -> thread -> inline``.  Consecutive infrastructure
  failures (pool death, submission failure) open the breaker; while
  open, fan-outs skip the substrate entirely (no doomed submissions,
  no fallback latency); after a cooldown one *probe* fan-out is let
  through (half-open), and its success promotes the substrate back.
  Payload corruption deliberately does **not** count against the
  breaker -- a poisoned ``(graph, version)`` payload is quarantined
  individually (see ``QueryEngine._quarantine``) so one bad graph
  cannot condemn an otherwise healthy backend.
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

#: hedge a job once it has run longer than p95 * alpha of its class.
HEDGE_ALPHA = 4.0

#: observed samples of a job class before its p95 is trusted for
#: hedging decisions (a cold histogram hedges everything or nothing).
HEDGE_MIN_SAMPLES = 20

#: never hedge before this many seconds, whatever the p95 says --
#: duplicating microsecond jobs buys nothing and doubles pool load.
HEDGE_MIN_SECONDS = 0.05

#: the degradation ladder, most- to least-parallel.
SUBSTRATES = ("process", "thread", "inline")


class RetryPolicy:
    """Retry budget and backoff schedule for one job class."""

    __slots__ = ("attempts", "base_delay", "max_delay", "hedge")

    def __init__(self, attempts=3, base_delay=0.005, max_delay=0.1,
                 hedge=True):
        self.attempts = int(attempts)
        self.base_delay = float(base_delay)
        self.max_delay = float(max_delay)
        self.hedge = bool(hedge)

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
    "full_query": RetryPolicy(attempts=3, hedge=True),
    "detect": RetryPolicy(attempts=2, hedge=False),
}

DEFAULT_POLICY = RetryPolicy(attempts=2, hedge=False)


class CircuitBreaker:
    """Closed / open / half-open breaker for one execution substrate.

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
        """Whether a fan-out may use this substrate right now:
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
    substrate breakers, the payload quarantine set, hedging
    thresholds, and the resilience counters the metrics plane
    exports.  One per :class:`~repro.engine.executor.QueryEngine`.
    """

    COUNTER_KEYS = ("retries", "retry_exhausted", "hedges",
                    "hedges_won", "hedges_lost", "quarantines",
                    "breaker_rejections", "payload_retries",
                    "faults_injected")

    def __init__(self, stats, breaker_cooldown=5.0,
                 hedge_alpha=HEDGE_ALPHA,
                 hedge_min_samples=HEDGE_MIN_SAMPLES):
        self.stats = stats
        self.hedge_alpha = float(hedge_alpha)
        self.hedge_min_samples = int(hedge_min_samples)
        self.breakers = {
            "process": CircuitBreaker("process",
                                      cooldown=breaker_cooldown),
            "thread": CircuitBreaker("thread",
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

    def substrate(self, preferred):
        """Walk the degradation ladder from ``preferred`` down to the
        first substrate whose breaker admits work.  Returns
        ``(substrate, probe)`` -- ``probe`` flags a half-open trial
        whose outcome the caller must report.  ``inline`` has no
        breaker: serial execution on the coordinating thread is the
        floor that always works."""
        start = SUBSTRATES.index(preferred)
        for level in SUBSTRATES[start:]:
            breaker = self.breakers.get(level)
            if breaker is None:
                return level, False
            verdict = breaker.allow()
            if verdict:
                return level, verdict == "probe"
            self.stats.count("breaker_rejections")
        return "inline", False

    def record(self, level, ok):
        """Report a substrate outcome to its breaker (no-op for
        ``inline``)."""
        breaker = self.breakers.get(level)
        if breaker is None:
            return
        if ok:
            breaker.record_success()
        else:
            breaker.record_failure()

    # ------------------------------------------------------------------
    # hedging
    # ------------------------------------------------------------------
    def hedge_threshold(self, op):
        """Seconds after which a running ``op`` job deserves a hedged
        duplicate, or ``None`` while the latency history is too cold
        to call anything a straggler."""
        if not self.policy(op).hedge:
            return None
        probe = getattr(self.stats, "latency_probe", None)
        if probe is None:
            return None
        count, p95 = probe(op)
        if count < self.hedge_min_samples or p95 <= 0.0:
            return None
        return max(p95 * self.hedge_alpha, HEDGE_MIN_SECONDS)

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
