"""Answer check against the paper's reference algorithms (untimed).

A sampled answer is recomputed on a private copy of the graph at the
version the program answered it:

* ACQ: ``brute_force_acq`` when ``|S|`` is small enough to enumerate,
  otherwise Dec over a CL-tree from ``build_cltree_basic``;
* global and k-truss: from-scratch core / truss decompositions;
* local and ATC: the registered algorithm run from scratch on the copy
  (no cache, no index).
"""

BRUTE_FORCE_MAX_KEYWORDS = 6


class Reference:
    """From-scratch answers on one private graph copy; the derived
    structures are rebuilt after every edit."""

    def __init__(self, graph_path):
        from repro.graph.io import load_graph
        self.graph = load_graph(graph_path)
        self._tree = self._core = self._truss = None

    def apply(self, kind, u, v):
        """Apply one edge edit (vertices by label)."""
        graph = self.graph
        a, b = graph.id_of(u), graph.id_of(v)
        if kind == "insert":
            graph.add_edge(a, b)
        else:
            graph.remove_edge(a, b)
        self._tree = self._core = self._truss = None

    def answer(self, algorithm, name, k, keywords):
        from repro.algorithms.attributed_truss import attributed_truss_search
        from repro.algorithms.global_search import global_search
        from repro.algorithms.local_search import local_search
        from repro.algorithms.truss_search import truss_community_search
        from repro.core.acq import AcqQuery, acq_search, brute_force_acq
        from repro.core.cltree import build_cltree_basic
        from repro.core.kcore import core_decomposition
        from repro.core.ktruss import truss_decomposition

        graph = self.graph
        q = graph.id_of(name)
        if algorithm == "acq":
            query = AcqQuery(graph, q, k, keywords)
            if len(query.keywords) <= BRUTE_FORCE_MAX_KEYWORDS:
                result = brute_force_acq(query)
            else:
                if self._tree is None:
                    self._tree = build_cltree_basic(graph)
                result = acq_search(graph, q, k, keywords=keywords,
                                    algorithm="dec", index=self._tree)
        elif algorithm == "global":
            if self._core is None:
                self._core = core_decomposition(graph)
            result = global_search(graph, q, k, core=self._core)
        elif algorithm == "k-truss":
            if self._truss is None:
                self._truss = truss_decomposition(graph)
            result = truss_community_search(graph, q, k, truss=self._truss)
        elif algorithm == "local":
            result = local_search(graph, q, k)
        elif algorithm == "atc":
            result = attributed_truss_search(graph, q, k, keywords=keywords)
        else:
            raise ValueError("no reference for " + algorithm)
        return tuple(tuple(c.member_names()) for c in result)


def matches(route, answer, expected):
    """A display shows the first community of the search's answer."""
    if route == "display":
        return bool(expected) and tuple(answer[0]) == expected[0]
    return tuple(tuple(c) for c in answer) == expected
