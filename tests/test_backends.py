"""Tests for the execution-backend abstraction (repro.engine.backends).

The load-bearing invariants:

* **equivalence** -- the process backend returns results identical to
  the thread backend, keywords or not, property-tested over random
  graphs, and process results track maintenance updates;
* **index builds** -- eager/background CL-tree builds route through
  the process pool and install snapshots equivalent to local builds;
* **fallback** -- a thread-backend engine runs process-style jobs
  inline, and pool failures degrade to in-process execution instead
  of failing the query.
"""

import pytest
from hypothesis import given, settings

from repro.engine.backends import (
    BACKENDS,
    ProcessBackend,
    build_index_job,
    shard_full_query_job,
    validate_backend,
)
from repro.core.kcore import core_decomposition
from repro.explorer.cexplorer import CExplorer
from repro.graph.frozen import freeze
from repro.util.errors import EngineError

from conftest import random_graphs


def _equivalent(plain, other, queries, algorithms=("global", "acq")):
    for q, k in queries:
        for algorithm in algorithms:
            expected = plain.search(algorithm, q, k=k, use_cache=False)
            got = other.search(algorithm, q, k=k, use_cache=False)
            assert got == expected, (algorithm, q, k)


# ----------------------------------------------------------------------
# configuration surface
# ----------------------------------------------------------------------
class TestBackendConfig:
    def test_backend_names(self):
        assert validate_backend("thread") == "thread"
        assert validate_backend("process") == "process"
        with pytest.raises(EngineError):
            validate_backend("greenlet")
        assert set(BACKENDS) == {"thread", "process"}

    def test_engine_rejects_unknown_backend(self):
        with pytest.raises(EngineError):
            CExplorer(backend="fibers")

    def test_snapshot_reports_backend(self, dblp_small):
        explorer = CExplorer()
        assert explorer.engine.snapshot()["backend"] == "thread"
        proc = CExplorer(backend="process")
        assert proc.engine.snapshot()["backend"] == "process"
        proc.engine.shutdown()

    def test_configure_switches_backend(self):
        explorer = CExplorer()
        explorer.engine.configure(backend="process")
        assert explorer.engine.backend == "process"
        assert explorer.indexes.build_executor is not None
        explorer.engine.configure(backend="thread")
        assert explorer.engine.backend == "thread"
        assert explorer.indexes.build_executor is None


# ----------------------------------------------------------------------
# job functions (in-process: they are plain picklable functions)
# ----------------------------------------------------------------------
class TestJobFunctions:
    def test_build_index_job_matches_local_build(self, karate):
        from repro.core.cltree import build_cltree
        frozen = freeze(karate)
        core, tree = build_index_job(frozen)
        assert core == core_decomposition(karate)
        oracle = build_cltree(karate)
        for v in karate.vertices():
            for k in range(max(core) + 2):
                assert tree.community_vertices(v, k) == \
                    oracle.community_vertices(v, k)


# ----------------------------------------------------------------------
# end-to-end equivalence
# ----------------------------------------------------------------------
class TestProcessBackendEquivalence:
    def test_process_equals_thread(self, dblp_small):
        plain = CExplorer()
        plain.add_graph("g", dblp_small)
        jim = dblp_small.id_of("Jim Gray")
        queries = [(jim, 2), (jim, 3), (17, 2), (0, 99)]
        proc = CExplorer(workers=2, backend="process")
        proc.add_graph("g", dblp_small)
        _equivalent(plain, proc, queries)
        # The queries really ran in the pool: no fallbacks.
        assert proc.engine.stats.get("process_fallbacks") == 0
        assert proc.engine.stats.get("full_query_fallbacks") == 0
        assert proc.engine.stats.get("worker_full_query") > 0
        proc.engine.shutdown()

    def test_keywords_and_variants(self, dblp_small):
        plain = CExplorer()
        plain.add_graph("g", dblp_small)
        proc = CExplorer(workers=2, backend="process")
        proc.add_graph("g", dblp_small)
        jim = dblp_small.id_of("Jim Gray")
        keywords = set(sorted(dblp_small.keywords(jim))[:2])
        for algorithm in ("acq", "acq-inc-s", "acq-inc-t"):
            for kw in (None, keywords):
                assert proc.search(algorithm, jim, k=3, keywords=kw) \
                    == plain.search(algorithm, jim, k=3, keywords=kw)
        proc.engine.shutdown()

    @settings(max_examples=8, deadline=None)
    @given(random_graphs(max_n=14, max_m=40, keywords=list("ab")))
    def test_process_equals_unsharded_property(self, graph):
        plain = CExplorer()
        plain.add_graph("g", graph)
        proc = CExplorer(workers=2, backend="process")
        proc.add_graph("g", graph)
        try:
            core = core_decomposition(graph)
            queries = [(v, min(core[v], 2)) for v in
                       list(graph.vertices())[:3]]
            _equivalent(plain, proc, queries)
            assert proc.engine.stats.get("full_query_fallbacks") == 0
        finally:
            proc.engine.shutdown()

    def test_results_track_maintenance(self, karate):
        plain = CExplorer()
        plain.add_graph("k", karate.copy())
        proc = CExplorer(workers=2, backend="process")
        proc.add_graph("k", karate.copy())
        mp_, mt = plain.maintainer(), proc.maintainer()
        for u, v in ((0, 9), (4, 12), (33, 9)):
            if proc.indexes.graph("k").has_edge(u, v):
                mt.remove_edge(u, v)
                mp_.remove_edge(u, v)
            else:
                mt.insert_edge(u, v)
                mp_.insert_edge(u, v)
            _equivalent(plain, proc, [(0, 2), (33, 3)])
        proc.engine.shutdown()

    def test_process_index_builds(self, dblp_small):
        plain = CExplorer()
        plain.add_graph("g", dblp_small, build="eager")
        proc = CExplorer(workers=2, backend="process")
        proc.add_graph("g", dblp_small, build="eager")
        assert proc.indexes.built("g")
        jim = dblp_small.id_of("Jim Gray")
        assert proc.search("acq", jim, k=3) == \
            plain.search("acq", jim, k=3)
        ops = proc.engine.snapshot()["latency"]
        assert "index_build_ipc" in ops
        proc.engine.shutdown()


# ----------------------------------------------------------------------
# fallback paths
# ----------------------------------------------------------------------
class TestFallbacks:
    def test_thread_engine_runs_jobs_inline(self, karate):
        explorer = CExplorer()           # thread backend
        explorer.add_graph("k", karate)
        payload, _ = explorer.indexes.full_payload("k")
        results = explorer.engine.map_shard_jobs(
            [(shard_full_query_job,
              (payload.key, payload.blob, "global", 0, 2))])
        assert results[0] == [c.to_wire() for c in
                              explorer.search("global", 0, k=2)]

    def test_broken_pool_falls_back_inline(self, karate):
        proc = CExplorer(workers=2, backend="process")
        proc.add_graph("k", karate)
        # Sabotage the pool: close it so the next fan-out breaks and
        # the engine degrades to inline execution.
        proc.engine._process.close()
        proc.engine._process._pool = None

        class _Exploding:
            def submit(self, *a, **kw):
                raise RuntimeError("boom")

            def shutdown(self, *a, **kw):
                pass

        proc.engine._process._pool = _Exploding()
        result = proc.search("global", 0, k=2, use_cache=False)
        plain = CExplorer()
        plain.add_graph("k", karate)
        assert result == plain.search("global", 0, k=2)
        assert proc.engine.stats.get("process_fallbacks") >= 1
        proc.engine.shutdown()

    def test_broken_build_executor_counts_and_builds_locally(
            self, karate):
        explorer = CExplorer()
        explorer.add_graph("k", karate)

        def exploding_build(graph, core=None):
            raise RuntimeError("boom")

        explorer.indexes.build_executor = exploding_build
        snap = explorer.indexes.snapshot("k")     # local fallback
        assert snap.cltree is not None
        assert explorer.indexes.build_fallbacks == 1
        assert explorer.engine.snapshot()["index_build_fallbacks"] == 1

    def test_shutdown_detaches_process_pool(self, karate):
        proc = CExplorer(workers=2, backend="process")
        proc.add_graph("k", karate)
        proc.engine.shutdown()
        assert proc.engine._process is None
        assert proc.indexes.build_executor is None
        # A post-shutdown build runs locally instead of resurrecting
        # a pool nothing would ever close.
        assert proc.indexes.snapshot("k").cltree is not None
        assert proc.indexes.build_fallbacks == 0

    def test_pool_recovers_after_break(self, karate):
        backend = ProcessBackend(workers=1)
        results, child, ipc = backend.run_jobs(
            [(core_decomposition, (freeze(karate),))])
        assert results[0] == core_decomposition(karate)
        assert len(child) == len(ipc) == 1
        backend._break()
        results, _, _ = backend.run_jobs(
            [(core_decomposition, (freeze(karate),))])
        assert results[0] == core_decomposition(karate)
        backend.close()
