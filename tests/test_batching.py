"""Single-flight dedup in the engine's search path.

The load-bearing property: concurrent execution through
:meth:`~repro.engine.executor.QueryEngine.search` is **byte-identical**
to serial execution -- sharing one execution between identical cache
misses changes how often work runs, never a result.  Property-tested
across both execution backends.  Around it: duplicates share one
execution, each caller owns its future (a follower's timeout never
hurts the others), a leader's error reaches every follower, and
cache-bypassing calls are never deduplicated.
"""

import json
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import get_cs_algorithm
from repro.datasets import DblpConfig, generate_dblp_graph
from repro.engine.batching import QueryBatcher, SingleFlight
from repro.explorer.cexplorer import CExplorer
from repro.util.errors import (
    CExplorerError,
    EngineBusyError,
    QueryTimeoutError,
)

VERTICES = ("jim gray", "michael stonebraker", "michael l. brodie",
            "bruce g. lindsay", "gerhard weikum")


_GRAPH = None


def _graph():
    # One shared immutable graph: generation dominates per-test cost,
    # and nothing in the search path mutates it.
    global _GRAPH
    if _GRAPH is None:
        _GRAPH = generate_dblp_graph(
            DblpConfig(n_authors=300, n_communities=6, seed=7))
    return _GRAPH


def _explorer(backend="thread", **kwargs):
    explorer = CExplorer(backend=backend, **kwargs)
    explorer.add_graph("dblp", _graph())
    return explorer


def _canon(communities):
    return json.dumps([c.to_dict() for c in communities],
                      sort_keys=True)


def _wedge(engine):
    """Occupy every worker until the returned event is set, so
    searches submitted meanwhile stay queued (and in flight)."""
    release = threading.Event()
    for _ in range(engine.workers):
        engine.submit(release.wait, 30.0, op="wedge")
    deadline = time.perf_counter() + 5.0
    while engine.snapshot()["in_flight"] < engine.workers \
            and time.perf_counter() < deadline:
        time.sleep(0.005)
    return release


def _run_concurrent(explorer, queries):
    """Submit every query while the workers are wedged, then gather:
    duplicates are guaranteed to overlap."""
    release = _wedge(explorer.engine)
    try:
        futures = [explorer.engine.search(algorithm, vertex, k=k)
                   for algorithm, vertex, k in queries]
    finally:
        release.set()
    return [_canon(f.result(60.0)) for f in futures]


class TestBatchedEqualsSerial:
    """The identity property, across substrates."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_mixed_batch_identical(self, backend):
        queries = [("acq", "jim gray", 3),
                   ("acq", "jim gray", 3),          # dedup pair
                   ("acq", "michael stonebraker", 3),
                   ("k-truss", "jim gray", 3),
                   ("global", "gerhard weikum", 4)]
        serial = _explorer(backend=backend)
        expected = [_canon(serial.search(a, v, k=k))
                    for a, v, k in queries]
        concurrent = _explorer(backend=backend, max_queue=16)
        try:
            assert _run_concurrent(concurrent, queries) == expected
            assert concurrent.engine.stats.get("shared_answers") == 1
        finally:
            concurrent.engine.shutdown()
            serial.engine.shutdown()

    @settings(max_examples=15, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from(("acq", "global", "k-truss")),
                  st.sampled_from(VERTICES),
                  st.integers(min_value=3, max_value=5)),
        min_size=1, max_size=8))
    def test_property_identical(self, queries):
        serial = _explorer()
        expected = [_canon(serial.search(a, v, k=k))
                    for a, v, k in queries]
        concurrent = _explorer(max_queue=16)
        assert _run_concurrent(concurrent, queries) == expected
        duplicates = len(queries) - len(set(queries))
        assert concurrent.engine.stats.get("shared_answers") \
            == duplicates


class TestBatcherBehaviour:
    def test_duplicate_queries_share_one_execution(self):
        explorer = _explorer()
        results = _run_concurrent(explorer,
                                  [("acq", "jim gray", 3)] * 5)
        assert len(set(results)) == 1
        stats = explorer.engine.stats
        assert stats.get("shared_answers") == 4
        # One execution: one search job, one cache store.
        assert explorer.engine.snapshot()["latency"]["search"][
            "count"] == 1
        assert explorer.cache.stats()["entries"] == 1
        assert explorer.engine.flights.in_flight() == 0

    def test_cache_hit_resolves_without_window(self):
        explorer = _explorer()
        explorer.search("acq", "jim gray", k=3)
        future = explorer.engine.search("acq", "jim gray", k=3)
        assert future.done()
        assert future.result(0.1)

    def test_bad_query_fails_alone(self):
        """A bad vertex or algorithm fails only its own future."""
        explorer = _explorer()
        release = _wedge(explorer.engine)
        try:
            good = explorer.engine.search("acq", "jim gray", k=3)
            bad = explorer.engine.search("acq", "nobody at all", k=3)
            unknown = explorer.engine.search("nope", "jim gray", k=3)
        finally:
            release.set()
        assert good.result(30.0)
        with pytest.raises(CExplorerError):
            bad.result(30.0)
        with pytest.raises(CExplorerError):
            unknown.result(30.0)

    def test_saturated_engine_fails_fast(self):
        """A full queue rejects the leader at once and leaves no
        flight behind for later callers to wait on."""
        explorer = _explorer(workers=1, max_queue=1)
        release = _wedge(explorer.engine)
        explorer.engine.submit(lambda: None, op="filler")
        try:
            for _ in range(2):
                with pytest.raises(EngineBusyError):
                    explorer.engine.search("acq", "jim gray", k=3)
            assert explorer.engine.flights.in_flight() == 0
        finally:
            release.set()


@pytest.fixture
def counted_global(monkeypatch):
    """Count (and slow down) executions of the ``global`` algorithm;
    ``fail`` makes every execution raise."""
    algo = get_cs_algorithm("global")
    inner = algo.func
    state = {"runs": 0, "fail": None}
    lock = threading.Lock()

    def counted(*args, **kwargs):
        with lock:
            state["runs"] += 1
        time.sleep(0.2)
        if state["fail"] is not None:
            raise state["fail"]
        return inner(*args, **kwargs)

    monkeypatch.setattr(algo, "func", counted)
    return state


class TestSingleFlight:
    def test_eight_threads_one_execution(self, counted_global):
        explorer = _explorer(workers=2)
        barrier = threading.Barrier(8)
        answers = [None] * 8

        def query(i):
            barrier.wait()
            answers[i] = _canon(explorer.engine.search_sync(
                "global", "jim gray", k=3, timeout=30.0))

        threads = [threading.Thread(target=query, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
            assert not t.is_alive()
        assert counted_global["runs"] == 1
        assert len(set(answers)) == 1 and answers[0] != "[]"
        assert explorer.engine.stats.get("shared_answers") == 7

    def test_follower_timeout_leaves_others_unharmed(self):
        explorer = _explorer(workers=1)
        release = _wedge(explorer.engine)
        leader = explorer.engine.search("acq", "jim gray", k=3)
        follower = explorer.engine.search("acq", "jim gray", k=3)
        other = explorer.engine.search("acq", "jim gray", k=3)
        with pytest.raises(QueryTimeoutError):
            follower.result(0.05)
        assert follower.cancel()
        release.set()
        assert leader.result(30.0) and other.result(30.0)
        assert _canon(leader.result(0)) == _canon(other.result(0))
        assert explorer.engine.stats.get("cancelled") == 0

    def test_job_cancelled_once_every_caller_left(self,
                                                  counted_global):
        explorer = _explorer(workers=1)
        release = _wedge(explorer.engine)
        futures = [explorer.engine.search("global", "jim gray", k=3)
                   for _ in range(3)]
        for future in futures:
            assert future.cancel()
        release.set()
        deadline = time.perf_counter() + 5.0
        while explorer.engine.stats.get("cancelled") < 1 \
                and time.perf_counter() < deadline:
            time.sleep(0.01)
        assert explorer.engine.stats.get("cancelled") == 1
        assert counted_global["runs"] == 0
        assert explorer.engine.flights.in_flight() == 0

    def test_leader_error_reaches_every_follower(self,
                                                 counted_global):
        counted_global["fail"] = CExplorerError("algorithm blew up")
        explorer = _explorer(workers=1)
        release = _wedge(explorer.engine)
        futures = [explorer.engine.search("global", "jim gray", k=3)
                   for _ in range(3)]
        release.set()
        for future in futures:
            with pytest.raises(CExplorerError, match="blew up"):
                future.result(30.0)
        assert counted_global["runs"] == 1
        assert explorer.engine.stats.get("shared_answers") == 0

    @pytest.mark.parametrize("extra", [{"use_cache": False},
                                       {"core": None}])
    def test_cache_bypassing_calls_never_share(self, counted_global,
                                               extra):
        explorer = _explorer(workers=1, max_queue=8)
        release = _wedge(explorer.engine)
        futures = [explorer.engine.search("global", "jim gray", k=3,
                                          **extra)
                   for _ in range(3)]
        release.set()
        answers = {_canon(f.result(30.0)) for f in futures}
        assert len(answers) == 1
        assert counted_global["runs"] == 3
        assert explorer.engine.stats.get("shared_answers") == 0

    def test_versions_never_share(self):
        """A search admitted after a write does not join a flight
        admitted before it."""
        explorer = _explorer(workers=1)
        release = _wedge(explorer.engine)
        before = explorer.engine.search("acq", "jim gray", k=3)
        explorer.indexes.invalidate("dblp")
        after = explorer.engine.search("acq", "jim gray", k=3)
        release.set()
        before.result(30.0)
        after.result(30.0)
        assert explorer.engine.stats.get("shared_answers") == 0

    def test_stress_every_caller_resolves(self):
        """16 threads hammer 3 keys with a tiny switch interval: a
        follower lost between join and settle would hang, a crossed
        wire would return another key's answer."""
        import sys

        queries = [("acq", v, 3) for v in VERTICES[:3]]
        serial = _explorer()
        expected = {q: _canon(serial.search(q[0], q[1], k=q[2]))
                    for q in queries}
        explorer = _explorer(workers=2, max_queue=64)
        failures = []

        def hammer(i):
            for round_ in range(6):
                if i == 0 and round_ % 2 == 0:
                    # Force fresh misses while the others join.
                    explorer.cache.invalidate("dblp")
                q = queries[(i + round_) % len(queries)]
                try:
                    got = _canon(explorer.engine.search(
                        q[0], q[1], k=q[2]).result(30.0))
                except EngineBusyError:
                    continue
                if got != expected[q]:
                    failures.append((q, got))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(i,))
                       for i in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not failures
        assert explorer.engine.flights.in_flight() == 0

    def test_query_batcher_alias(self):
        assert QueryBatcher is SingleFlight
        assert "submit" in vars(QueryBatcher)
