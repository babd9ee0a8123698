"""Tests for what remains of repro.engine.sharding.

Partitioned execution was removed; the module keeps
``ShardedIndexManager`` as an alias of :class:`IndexManager`.  These
tests pin the registration invariants that the sharded path used to
guard and that still hold on the unsharded path: a rejected
registration leaves no phantom graph, and a rejected re-registration
keeps the old graph serving.
"""

import pytest

from repro.engine.index_manager import IndexManager
from repro.engine.sharding import ShardedIndexManager
from repro.explorer.cexplorer import CExplorer
from repro.util.errors import CExplorerError


class TestShardedIndexManager:
    def test_rejected_name_leaves_no_phantom_graph(self, karate):
        assert ShardedIndexManager is IndexManager
        explorer = CExplorer()
        with pytest.raises(CExplorerError):
            explorer.add_graph("g", karate, build="bogus")
        assert explorer.graph_names() == []
        assert explorer.indexes.names() == []


class TestMaintenanceRouting:
    def test_failed_reregistration_keeps_old_graph(self, karate, fig5):
        """A rejected re-registration must not leave the index manager
        holding a graph the explorer rolled back."""
        explorer = CExplorer()
        explorer.add_graph("g", karate)
        baseline = explorer.search("global", 0, k=2, use_cache=False)
        with pytest.raises(CExplorerError):
            explorer.add_graph("g", fig5, build="bogus")
        assert explorer.indexes.graph("g") is karate
        assert explorer.search("global", 0, k=2, use_cache=False) \
            == baseline
