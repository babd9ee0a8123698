"""Compatibility alias: partitioned execution was removed.

``perfbench/layers.py`` wraps ``ShardedIndexManager.invalidate``, and
the benchmark's files are revised separately from the engine, so the
name stays as an alias of :class:`IndexManager` until the next
benchmark revision drops the import.
"""

from repro.engine.index_manager import IndexManager

ShardedIndexManager = IndexManager
