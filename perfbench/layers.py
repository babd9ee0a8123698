"""Benchmark-side tracing: wrappers around the program's public functions.

Nothing here changes the program.  :func:`install` replaces a fixed set
of public functions and methods with timing wrappers (every module-level
reference to a wrapped function inside ``repro`` is rebound too, so
``from x import f`` call sites are covered).  Each call records one span
``(name, start, duration, self, blocking)``; a span's self time is its
duration minus the time its child spans in the same thread cover.
``blocking`` spans wait on another thread (a future's result) and count
as children of their caller, never as work of their own.

The first dotted component of a span name is its layer: ``server``,
``executor``, ``batching``, ``cache``, ``plans``, ``index_manager``,
``explorer``, ``core``, ``algorithms``, ``graph``, ``viz``.
"""

import functools
import json
import sys
import threading
import time

LAYERS = ("server", "executor", "batching", "cache", "plans",
          "index_manager", "explorer", "core", "algorithms", "graph",
          "viz")

# Registered CS algorithms whose calls are timed as ``algorithms.<name>``.
ALGORITHMS = ("global", "local", "k-truss", "atc")


class Recorder:
    """In-memory span store; spans are written out once, at the end."""

    def __init__(self):
        self.spans = []
        self.observations = []
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, blocking=False, observe=None):
        """``fn`` timed as span ``name``; ``observe(result)`` may name
        an extra observation (``(name, value)``) taken from the result."""
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                spans.append((name, start, duration,
                              duration - children[0], blocking))
            if observe is not None:
                extra = observe(result)
                if extra is not None:
                    self.observations.append((extra[0], start, extra[1]))
            return result

        return wrapper

    def observe(self, name, value):
        self.observations.append((name, time.perf_counter(), value))

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans,
                       "observations": self.observations}, handle)


def _rebind(old, new):
    """Point every ``repro`` module global that is ``old`` at ``new``."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is old:
                namespace[attr] = new


def _wrap_function(recorder, module, attr, span, **kw):
    old = getattr(module, attr)
    _rebind(old, recorder.wrap(span, old, **kw))


def _wrap_method(recorder, cls, attr, span, **kw):
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(recorder.wrap(span, raw.__func__,
                                                     **kw)))
    else:
        setattr(cls, attr, recorder.wrap(span, raw, **kw))


def install(recorder):
    """Wrap the public functions behind every per-layer metric."""
    import repro.cli  # noqa: F401  (loads every module the CLI serves)
    from repro.algorithms import registry
    from repro.core import acq, cltree, kcore, ktruss
    from repro.core.maintenance import CoreMaintainer
    from repro.core.truss_maintenance import TrussMaintainer
    from repro.engine import plans
    from repro.engine.batching import QueryBatcher
    from repro.engine.cache import ResultCache
    from repro.engine.executor import EngineFuture, QueryEngine
    from repro.engine.index_manager import IndexManager
    from repro.engine.sharding import ShardedIndexManager
    from repro.explorer.cexplorer import CExplorer
    from repro.graph import io
    from repro.graph.frozen import FrozenGraph
    from repro.server.app import _Handler
    from repro.viz import layout, render

    method = functools.partial(_wrap_method, recorder)
    function = functools.partial(_wrap_function, recorder)

    method(_Handler, "do_GET", "server.request")
    method(_Handler, "do_POST", "server.request")

    method(QueryEngine, "search", "executor.search")
    method(EngineFuture, "result", "executor.wait", blocking=True)
    submit = QueryEngine.submit

    def timed_submit(self, fn, *args, **kwargs):
        submitted = time.perf_counter()
        job = recorder.wrap("executor.job", fn)

        def run(*a, **kw):
            recorder.observe("executor.queue_wait",
                             time.perf_counter() - submitted)
            return job(*a, **kw)

        return submit(self, run, *args, **kwargs)

    QueryEngine.submit = timed_submit
    method(QueryBatcher, "submit", "batching.submit")

    method(ResultCache, "get", "cache.get")
    method(ResultCache, "put", "cache.put")
    method(ResultCache, "invalidate", "cache.invalidate")

    function(plans, "plan_search", "plans.plan_search",
             observe=lambda plan: ("plans.full_query",
                                   int(bool(plan.worker_full_query))))

    method(IndexManager, "snapshot", "index_manager.snapshot")
    # A CL-tree build runs in a builder thread the caller joins: the
    # join waits on the build's own spans in that thread.
    method(threading.Thread, "join", "index_manager.build_wait",
           blocking=True)
    method(IndexManager, "core", "index_manager.core")
    method(IndexManager, "truss", "index_manager.truss")
    method(IndexManager, "full_payload", "index_manager.full_payload",
           observe=lambda out: ("index_manager.freeze",
                                out[0].build_seconds) if out[1] else None)
    method(ShardedIndexManager, "invalidate", "index_manager.invalidate")

    method(CExplorer, "search", "explorer.search")
    method(CExplorer, "peek_cached", "explorer.peek_cached")
    method(CExplorer, "resolve_vertex", "explorer.resolve_vertex")
    method(CExplorer, "display", "explorer.display")

    function(acq, "acq_search", "core.acq")
    function(cltree, "build_cltree", "core.build_cltree")
    function(kcore, "core_decomposition", "core.core_decomposition")
    function(ktruss, "truss_decomposition", "core.truss_decomposition")
    method(CoreMaintainer, "insert_edge", "core.maintenance.update")
    method(CoreMaintainer, "remove_edge", "core.maintenance.update")
    method(TrussMaintainer, "apply", "core.truss_maintenance.update")

    for name in ALGORITHMS:
        algo = registry.get_cs_algorithm(name)
        algo.func = recorder.wrap("algorithms." + name, algo.func)

    function(io, "load_graph", "graph.load_graph")
    method(FrozenGraph, "from_graph", "graph.freeze")
    method(FrozenGraph, "keyword_postings", "graph.keyword_postings")

    for name in ("ego_layout", "circular_layout", "spring_layout"):
        function(layout, name, "viz.layout")
    function(render, "render_svg", "viz.render_svg")
