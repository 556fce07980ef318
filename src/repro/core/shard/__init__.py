"""Partition-aware index layer: deterministic sharding with merged cursors.

The package splits a dataset over per-shard indexes (each with its own
storage environment), fans query expressions out to all shards, and merges
the per-shard streaming cursors while preserving ``limit``'s early-stop
semantics.  See :class:`ShardedIndex` for the entry point and
:mod:`repro.core.updates` for the delta-buffer wrapper
(``UpdatableShardedOIF``) that flushes shards independently.
"""

from repro.core.shard.merge import FanoutPlan, MergedShardCursor, merge_cursors
from repro.core.shard.partitioner import (
    HashPartitioner,
    Partitioner,
    RoundRobinPartitioner,
    make_partitioner,
    stable_id_hash,
)
from repro.core.shard.procpool import (
    RemoteShardCursor,
    ShardImage,
    ShardProcessPool,
)
from repro.core.shard.sharded import (
    AbsorbReport,
    AggregateIOStatistics,
    ShardedIndex,
    ShardQueryStat,
)

__all__ = [
    "AbsorbReport",
    "AggregateIOStatistics",
    "FanoutPlan",
    "HashPartitioner",
    "MergedShardCursor",
    "Partitioner",
    "RemoteShardCursor",
    "RoundRobinPartitioner",
    "ShardImage",
    "ShardProcessPool",
    "ShardQueryStat",
    "ShardedIndex",
    "make_partitioner",
    "merge_cursors",
    "stable_id_hash",
]
