"""Deterministic inputs: graph files, request streams and edit streams.

Everything is derived from the workload seed.  Graphs come from the
program's own generator (``repro generate``) and are cached under
``.bench_cache/graphs`` so each seed is generated once; streams are
built from the benchmark's own parse of the graph file, never from the
program's data structures, so a change to the program cannot change
what it is asked.
"""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from collections import namedtuple

CACHE_DIR = ".bench_cache"

# One community search as a user issues it.  ``vertex`` is a vertex id
# in file order; ``keywords`` is a sorted tuple or None (``S = W(q)``).
Query = namedtuple("Query", "algorithm vertex k keywords")

# One HTTP request: ``route`` is "search" or "display"; ``name`` is the
# vertex name as typed.
Request = namedtuple("Request", "route query name")


def program_env(root):
    """The program's environment: no ``REPRO_*`` variables (fault plan,
    store dir, payload transport), and the checkout's ``src`` on the
    path."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def cache_path(root, *parts):
    path = os.path.join(root, CACHE_DIR, *parts)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


def ensure_graph(root, authors, seed):
    """Path of the generated ``authors``-author DBLP graph for ``seed``."""
    path = cache_path(root, "graphs", "dblp-{}-{}.json".format(authors,
                                                               seed))
    if not os.path.exists(path):
        tmp = "{}.{}.tmp".format(path, os.getpid())
        subprocess.run(
            [sys.executable, "-m", "repro", "generate", "--authors",
             str(authors), "--seed", str(seed), "--out", tmp],
            env=program_env(root), check=True, timeout=600,
            stdout=subprocess.DEVNULL)
        os.replace(tmp, path)
    return path


class GraphView:
    """The benchmark's own read of a graph file: labels, keywords,
    adjacency and core numbers (computed here, not by the program)."""

    def __init__(self, path):
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        index = {entry["id"]: i for i, entry in enumerate(doc["vertices"])}
        self.labels = [entry["label"] for entry in doc["vertices"]]
        self.keywords = [tuple(entry["keywords"])
                         for entry in doc["vertices"]]
        self.adj = [set() for _ in self.labels]
        for u, v in doc["edges"]:
            a, b = index[u], index[v]
            self.adj[a].add(b)
            self.adj[b].add(a)
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("graph labels are not unique: " + path)
        self.core = core_numbers(self.adj)
        lowered = {}
        for v, label in enumerate(self.labels):
            lowered.setdefault(label.lower(), []).append(v)
        # Vertices whose lower-cased name still names only them.
        self.lower_unique = {vs[0] for vs in lowered.values()
                             if len(vs) == 1}

    def __len__(self):
        return len(self.labels)


def core_numbers(adj):
    """Core number of every vertex (bucket peeling)."""
    deg = [len(nbrs) for nbrs in adj]
    bins = [set() for _ in range(max(deg, default=0) + 1)]
    for v, d in enumerate(deg):
        bins[d].add(v)
    core = [0] * len(adj)
    removed = [False] * len(adj)
    level = d = 0
    for _ in range(len(adj)):
        while not bins[d]:
            d += 1
        v = bins[d].pop()
        level = max(level, d)
        core[v] = level
        removed[v] = True
        for u in adj[v]:
            if not removed[u]:
                bins[deg[u]].discard(u)
                deg[u] -= 1
                bins[deg[u]].add(u)
        d = max(d - 1, 0)
    return core


def _keywords(rng, graph, v, share):
    """An optional ``S`` of 2-4 of ``v``'s own keywords (None = W(q))."""
    if rng.random() >= share or len(graph.keywords[v]) < 2:
        return None
    return _subset(rng, graph, v)


def _subset(rng, graph, v):
    if len(graph.keywords[v]) < 2:
        return None
    size = rng.randint(2, min(4, len(graph.keywords[v])))
    return tuple(sorted(rng.sample(graph.keywords[v], size)))


class QueryMaker:
    """Distinct random queries: vertex with core >= k, so every query
    has a non-empty k-core to search."""

    KS = (3, 4, 5)

    def __init__(self, graph, rng, keyword_share=0.5):
        self.graph = graph
        self.rng = rng
        self.keyword_share = keyword_share
        self.eligible = {k: [v for v in range(len(graph))
                             if graph.core[v] >= k] for k in self.KS}
        self.seen = set()

    def make(self, algorithm, vertex=None, k=None, keywords=None):
        """A query never made before; ``keywords`` True/False forces an
        ``S`` on or off for ACQ and ATC (None: ``keyword_share``)."""
        for _ in range(1000):
            kk = k or self.rng.choice(self.KS)
            v = vertex if vertex is not None \
                else self.rng.choice(self.eligible[kk])
            kw = None
            if algorithm in ("acq", "atc"):
                if keywords is None:
                    kw = _keywords(self.rng, self.graph, v,
                                   self.keyword_share)
                elif keywords:
                    kw = _subset(self.rng, self.graph, v)
            query = Query(algorithm, v, kk, kw)
            if query not in self.seen:
                self.seen.add(query)
                return query
        raise RuntimeError("no new query for {} {} {}".format(
            algorithm, vertex, k))


def warmup_queries(maker, algorithms):
    """One query per algorithm family on the best-connected vertex with
    ``k = 3`` and, for ACQ and ATC, ``S`` = its first two keywords: the
    same for every seed.  The maker never emits them again."""
    graph = maker.graph
    hub = max(range(len(graph)), key=lambda v: (graph.core[v], -v))
    pair = tuple(sorted(graph.keywords[hub])[:2])
    warm = [Query(a, hub, 3, pair if a in ("acq", "atc") else None)
            for a in algorithms]
    maker.seen.update(warm)
    return warm


def browse_stream(graph, seed, pattern, families):
    """``(warm-up queries, endless generator of distinct queries)``.

    Query ``i`` runs ``pattern[i % len(pattern)]``: an algorithm name,
    with ``/S`` for an ``S`` of 2-4 of the vertex's keywords (otherwise
    ``S = W(q)``).  Each entry cycles ``k`` through 3, 4, 5.  Only
    vertices and keywords are random, so every seed asks the same kinds
    of query.
    """
    maker = QueryMaker(graph, random.Random("browse:{}".format(seed)))
    warm = warmup_queries(maker, families)

    def stream():
        seen = {}
        for i in itertools.count():
            entry = pattern[i % len(pattern)]
            algorithm, _, subset = entry.partition("/")
            n = seen[entry] = seen.get(entry, -1) + 1
            query = maker.make(algorithm=algorithm,
                               k=QueryMaker.KS[n % len(QueryMaker.KS)],
                               keywords=bool(subset))
            yield Request("search", query, graph.labels[query.vertex])

    return warm, stream()


def hot_streams(graph, seed, clients, families, pattern, zipf_s,
                display_share, fresh_share, lower_share):
    """``(warm-up queries, per-client request generators, pool)``: the
    requests draw from one Zipf-skewed query pool.

    Pool rank ``i`` holds algorithm ``pattern[i % len(pattern)]`` with
    ``k`` cycling through 3, 4, 5.
    ``display_share`` of requests display a pool ACQ answer (never
    empty); ``fresh_share`` of searches are distinct never-repeated
    queries in the same algorithm pattern; ``lower_share`` of names
    arrive lower-cased, as typed.
    """
    # The pool is the same for every seed: which queries are hot decides
    # most of the server's work, and a seed-drawn pool moved throughput
    # by 30% between seeds.  The seed drives everything else.
    maker = QueryMaker(graph, random.Random("hot-pool"))
    warm = warmup_queries(maker, families)
    pool = [maker.make(algorithm=pattern[i % len(pattern)],
                       k=QueryMaker.KS[i % len(QueryMaker.KS)])
            for i in range(len(pattern) * 10)]
    maker.rng = random.Random("hot:{}".format(seed))
    displayable = [q for q in pool if q.algorithm == "acq"]
    fresh = [maker.make(algorithm=pattern[i % len(pattern)])
             for i in range(20000)]

    def zipf_weights(n):
        return [1.0 / (rank + 1) ** zipf_s for rank in range(n)]

    pool_w = zipf_weights(len(pool))
    display_w = zipf_weights(len(displayable))

    def stream(client):
        crng = random.Random("hot:{}:{}".format(seed, client))
        fresh_iter = iter(fresh[client::clients])
        while True:
            if crng.random() < display_share:
                route = "display"
                query = crng.choices(displayable, display_w)[0]
            elif crng.random() < fresh_share:
                route, query = "search", next(fresh_iter)
            else:
                route, query = "search", crng.choices(pool, pool_w)[0]
            name = graph.labels[query.vertex]
            if crng.random() < lower_share \
                    and query.vertex in graph.lower_unique:
                name = name.lower()
            yield Request(route, query, name)

    return warm, [stream(c) for c in range(clients)], pool


def edit_rounds(graph, seed, rounds, batch_size):
    """Rounds of ``(edits, searches)`` for the edit-while-browsing loop.

    Each batch inserts and removes edges around one focus vertex (half
    its edits touch the focus's 2-hop neighbourhood) on a simulated copy
    of the edge set, so every insert is of an absent edge and every
    remove of a present one.  Searches: an ACQ near the edits and one
    far from them, then a global or k-truss search (alternating).  The
    first ACQ after the edits, the one that pays for the CL-tree
    rebuild, has ``S = W(q)`` and alternates between near and far; the
    second has an ``S`` of 2-4 keywords.
    """
    rng = random.Random("edit:{}".format(seed))
    adj = [set(nbrs) for nbrs in graph.adj]
    maker = QueryMaker(graph, rng)
    eligible = maker.eligible[3]
    out = []
    queried = set()
    for r in range(rounds):
        focus = rng.choice(eligible)
        while focus in queried:
            focus = rng.choice(eligible)
        region = sorted({w for u in adj[focus] for w in adj[u]}
                        - {focus})
        edits = []
        while len(edits) < batch_size:
            if rng.random() < 0.5 and region:
                u, v = focus, rng.choice(region)
            else:
                u, v = rng.choice(eligible), rng.choice(eligible)
            if u == v:
                continue
            if v in adj[u] and len(adj[u]) > 1 and len(adj[v]) > 1:
                adj[u].discard(v)
                adj[v].discard(u)
                edits.append(("remove", u, v))
            elif v not in adj[u]:
                adj[u].add(v)
                adj[v].add(u)
                edits.append(("insert", u, v))
        near_first = r % 2 == 0
        near = maker.make(algorithm="acq", vertex=focus, k=3,
                          keywords=not near_first)
        far = maker.make(algorithm="acq", keywords=near_first)
        searches = [near, far] if near_first else [far, near]
        searches.append(maker.make(
            algorithm="k-truss" if near_first else "global"))
        queried.update(q.vertex for q in searches)
        out.append((edits, searches))
    return out


def digest(items):
    """A stable hash of a sequence of namedtuples / tuples."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode("utf-8"))
    return h.hexdigest()
