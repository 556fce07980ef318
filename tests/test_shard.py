"""Unit tests for the partition-aware index layer (repro.core.shard)."""

from __future__ import annotations

import pytest

from repro.core import Dataset, OrderedInvertedFile, ShardedIndex
from repro.core.query import And, Equality, Not, Or, Subset, Superset, leaf_for
from repro.core.records import Record
from repro.core.shard import (
    FanoutPlan,
    HashPartitioner,
    MergedShardCursor,
    RoundRobinPartitioner,
    make_partitioner,
    merge_cursors,
    stable_id_hash,
)
from repro.core.updates import UpdatableOIF, UpdatableShardedOIF
from repro.errors import QueryError
from repro.storage.stats import DiskModel, IOSnapshot


class TestPartitioners:
    def test_hash_assignment_is_deterministic_and_in_range(self):
        partitioner = HashPartitioner(4)
        assignments = [partitioner.shard_of(record_id) for record_id in range(1000)]
        assert assignments == [partitioner.shard_of(record_id) for record_id in range(1000)]
        assert set(assignments) == {0, 1, 2, 3}

    def test_stable_hash_does_not_depend_on_process_seed(self):
        # Fixed reference values: if these move, shard layouts of persisted
        # deployments silently change.
        assert stable_id_hash(1) == stable_id_hash(1)
        assert stable_id_hash(1) != stable_id_hash(2)
        assert stable_id_hash(0) == 16294208416658607535

    def test_round_robin_stripes_dense_ids_evenly(self):
        partitioner = RoundRobinPartitioner(3)
        groups = partitioner.split(Record(i, frozenset("a")) for i in range(9))
        assert [len(group) for group in groups] == [3, 3, 3]
        assert [record.record_id for record in groups[1]] == [1, 4, 7]

    def test_split_covers_every_record_exactly_once(self):
        partitioner = HashPartitioner(5)
        records = [Record(i, frozenset("ab")) for i in range(57)]
        groups = partitioner.split(records)
        flattened = sorted(r.record_id for group in groups for r in group)
        assert flattened == list(range(57))

    def test_make_partitioner_rejects_unknown_strategy_and_bad_counts(self):
        with pytest.raises(QueryError):
            make_partitioner("zigzag", 2)
        with pytest.raises(QueryError):
            HashPartitioner(0)
        with pytest.raises(QueryError):
            make_partitioner(HashPartitioner(2), 3)

    def test_make_partitioner_passes_instances_through(self):
        partitioner = RoundRobinPartitioner(2)
        assert make_partitioner(partitioner, 2) is partitioner
        assert make_partitioner("ROUND_ROBIN", 4).num_shards == 4


class TestIOSnapshotAlgebra:
    def test_add_mirrors_sub(self):
        a = IOSnapshot(page_reads=5, page_writes=2, sequential_reads=3,
                       random_reads=2, logical_reads=9, cache_hits=4)
        b = IOSnapshot(page_reads=1, page_writes=1, sequential_reads=1,
                       random_reads=0, logical_reads=2, cache_hits=1)
        total = a + b
        assert total - b == a
        assert total - a == b
        assert total.page_reads == 6 and total.cache_hits == 5

    def test_sum_over_snapshots(self):
        parts = [IOSnapshot(page_reads=i) for i in range(4)]
        assert sum(parts, IOSnapshot()).page_reads == 6


class TestMergeCursors:
    def test_round_robin_interleaving_and_slice(self):
        streams = [iter([1, 4, 7]), iter([2, 5]), iter([3])]
        assert list(merge_cursors(streams)) == [1, 2, 3, 4, 5, 7]

    def test_offset_and_count(self):
        streams = [iter([1, 3, 5]), iter([2, 4, 6])]
        assert list(merge_cursors(streams, count=3, offset=1)) == [2, 3, 4]

    def test_zero_count_pulls_nothing(self):
        pulled = []

        def stream():
            pulled.append(True)
            yield 1

        assert list(merge_cursors([stream()], count=0)) == []
        assert pulled == []

    def test_limit_does_not_drain_noncontributing_streams(self):
        drained = []

        def stream(name, ids):
            for record_id in ids:
                drained.append(name)
                yield record_id

        out = list(
            merge_cursors([stream("a", range(0, 100)), stream("b", range(100, 200))], count=4)
        )
        assert len(out) == 4
        # Only the pulls the slice needed happened: 2 per stream, not 100.
        assert len(drained) == 4


@pytest.fixture(scope="module", params=["hash", "round_robin"])
def sharded_pair(request, larger_dataset):
    """A (monolithic, sharded) OIF pair over the same 2000-record dataset."""
    return (
        OrderedInvertedFile(larger_dataset),
        ShardedIndex(larger_dataset, 4, strategy=request.param),
    )


@pytest.fixture(scope="module")
def paged_pair():
    """Index pair over a dataset whose hot lists span many (small) pages.

    Early-stop savings only show when the driving inverted list crosses
    block/page boundaries, so this fixture shrinks the page size and picks a
    frequent item that is answered from list blocks rather than from the
    (page-free) metadata region.
    """
    from repro.datasets import SyntheticConfig, generate_synthetic

    dataset = generate_synthetic(
        SyntheticConfig(num_records=20_000, domain_size=500, zipf_order=0.8, seed=7)
    )
    mono = OrderedInvertedFile(dataset, page_size=1024)
    sharded = ShardedIndex(dataset, 4, page_size=1024)
    vocabulary = dataset.vocabulary
    by_support = sorted(vocabulary, key=vocabulary.support, reverse=True)
    costs = []
    for item in by_support[:8]:
        mono.drop_cache()
        result = mono.measured_execute(Subset(frozenset([item])))
        costs.append((result.page_accesses, item))
    _, item = max(costs)
    return mono, sharded, item


class TestShardedIndex:
    def test_implements_the_contract_for_all_predicates(self, sharded_pair):
        mono, sharded = sharded_pair
        items = sorted(sharded.dataset.vocabulary, key=str)[:3]
        for query_type in ("subset", "equality", "superset"):
            leaf = leaf_for(query_type, items[:2])
            assert sharded.evaluate(leaf) == mono.evaluate(leaf)

    def test_composite_expressions_match_the_monolithic_index(self, sharded_pair):
        mono, sharded = sharded_pair
        a, b, c = sorted(sharded.dataset.vocabulary, key=str)[:3]
        expr = Or((
            And((Subset(frozenset([a])), Not(Superset(frozenset([a, b]))))),
            Subset(frozenset([b, c])),
        ))
        assert sharded.evaluate(expr) == mono.evaluate(expr)

    def test_cursor_io_delta_sums_page_reads_across_shards(self, sharded_pair):
        _, sharded = sharded_pair
        item = sorted(sharded.dataset.vocabulary, key=str)[0]
        sharded.drop_cache()
        cursor = sharded.execute(Subset(frozenset([item])))
        cursor.fetch_all()
        delta = cursor.io_delta()
        per_shard = sum(shard.stats.page_reads for shard in sharded.live_shards)
        assert delta.page_reads > 0
        # The cursor's aggregated delta must equal the per-shard totals
        # accumulated by this (cold-started) traversal.
        assert delta.page_reads <= per_shard

    def test_limit_reads_strictly_fewer_pages_than_the_full_scans(self, paged_pair):
        """Early-stop survives the k-way merge (acceptance criterion).

        A ``limit k`` over the sharded index must read strictly fewer data
        pages than draining either the sharded *or* the monolithic index —
        the merge may only pull the ``k`` ids it yields (plus the rotation's
        probe starts), never the tails of non-contributing shards.
        """
        mono, sharded, item = paged_pair
        expr = Subset(frozenset([item]))
        mono.drop_cache()
        mono_full = mono.measured_execute(expr)
        sharded.drop_cache()
        full = sharded.measured_execute(expr)
        assert full.cardinality == mono_full.cardinality > 100
        sharded.drop_cache()
        limited = sharded.measured_execute(expr.limit(10))
        assert limited.cardinality == 10
        assert 0 < limited.page_accesses < full.page_accesses
        assert limited.page_accesses < mono_full.page_accesses
        assert set(limited.record_ids) <= set(full.record_ids)

    def test_offset_limit_is_a_valid_slice(self, sharded_pair):
        mono, sharded = sharded_pair
        item = sorted(sharded.dataset.vocabulary, key=str)[1]
        expr = Subset(frozenset([item]))
        full = set(mono.evaluate(expr))
        sliced = list(sharded.execute(expr.limit(7, offset=3)))
        assert len(sliced) == min(7, max(0, len(full) - 3))
        assert set(sliced) <= full
        assert len(set(sliced)) == len(sliced), "merged shard streams must not duplicate"

    def test_more_shards_than_records_leaves_empty_slots(self):
        dataset = Dataset.from_transactions([{"a"}, {"a", "b"}, {"b"}])
        sharded = ShardedIndex(dataset, 8)
        assert sum(sharded.shard_record_counts()) == 3
        assert len(sharded.live_shards) <= 3
        assert sharded.evaluate(Subset(frozenset(["a"]))) == [1, 2]

    def test_index_size_and_snapshot_aggregate_over_shards(self, sharded_pair):
        _, sharded = sharded_pair
        assert sharded.index_size_bytes == sum(
            shard.index_size_bytes for shard in sharded.live_shards
        )
        total = sharded.io_snapshot()
        assert total.page_reads == sum(
            shard.stats.page_reads for shard in sharded.live_shards
        )

    def test_mixed_disk_models_across_shards_fail_loudly(self, larger_dataset):
        sharded = ShardedIndex(larger_dataset, 3)
        assert sharded.stats.disk_model == DiskModel()  # uniform: fine
        # Re-pricing one shard must make the aggregate refuse rather than
        # silently bill every shard at shard 0's rates.
        sharded.live_shards[1].stats.disk_model = DiskModel(random_access_ms=1.0)
        with pytest.raises(QueryError, match="different disk models"):
            sharded.stats.disk_model

    def test_parallel_build_matches_serial_build(self, larger_dataset):
        serial = ShardedIndex(larger_dataset, 4)
        parallel = ShardedIndex(larger_dataset, 4, max_workers=4)
        item = sorted(larger_dataset.vocabulary, key=str)[0]
        expr = Subset(frozenset([item]))
        assert serial.evaluate(expr) == parallel.evaluate(expr)
        assert serial.shard_record_counts() == parallel.shard_record_counts()

    def test_explain_renders_the_fanout_plan_without_io(self, sharded_pair):
        _, sharded = sharded_pair
        item = sorted(sharded.dataset.vocabulary, key=str)[0]
        sharded.drop_cache()
        before = sharded.io_snapshot()
        text = sharded.explain(Subset(frozenset([item])).limit(5))
        assert "fanout over" in text and "shard 0:" in text
        assert (sharded.io_snapshot() - before).page_reads == 0

    def test_execute_returns_a_merged_cursor_with_fanout_plan(self, sharded_pair):
        _, sharded = sharded_pair
        item = sorted(sharded.dataset.vocabulary, key=str)[0]
        cursor = sharded.execute(Subset(frozenset([item])))
        assert isinstance(cursor, MergedShardCursor)
        assert isinstance(cursor.plan, FanoutPlan)
        assert len(cursor.plan.shard_plans) == len(sharded.live_shards)

    def test_rejects_shared_environment_and_factory_plus_options(self, larger_dataset):
        with pytest.raises(QueryError):
            ShardedIndex(larger_dataset, 2, env=object())
        with pytest.raises(QueryError):
            ShardedIndex(
                larger_dataset, 2,
                factory=lambda ds: OrderedInvertedFile(ds), use_metadata=False,
            )

    def test_open_cursor_io_delta_survives_an_absorb(self, larger_dataset):
        """A cursor's accounting pins the shards it reads, not the live view.

        An ``absorb`` that swaps a shard in mid-traversal must neither erase
        the pages the cursor already read (fresh environment, zeroed
        counters) nor charge the rebuild's build I/O to the query.
        """
        sharded = ShardedIndex(larger_dataset, 4)
        item = sorted(larger_dataset.vocabulary, key=str)[0]
        sharded.drop_cache()
        cursor = sharded.execute(Subset(frozenset([item])))
        cursor.fetch(20)
        before = cursor.io_delta().page_reads
        assert before > 0
        next_id = max(sharded.dataset.record_ids) + 1
        sharded.absorb([Record(next_id, frozenset([item]))])
        after = cursor.io_delta().page_reads
        assert after == before

    def test_fanout_evaluate_breakdown_covers_every_live_shard(self, sharded_pair):
        mono, sharded = sharded_pair
        item = sorted(sharded.dataset.vocabulary, key=str)[0]
        expr = Subset(frozenset([item]))
        sharded.drop_cache()
        ids, stats = sharded.fanout_evaluate(expr)
        assert ids == mono.evaluate(expr)
        assert [stat.shard for stat in stats] == [
            position
            for position in range(sharded.num_shards)
            if sharded.shard_at(position) is not None
        ]
        assert sum(stat.matches for stat in stats) == len(ids)
        assert sum(stat.page_accesses for stat in stats) > 0


class TestUpdatableShardedOIF:
    @pytest.fixture()
    def pair(self, skewed_dataset):
        return UpdatableOIF(skewed_dataset), UpdatableShardedOIF(skewed_dataset, 4)

    def test_inserts_are_immediately_queryable_and_match_monolith(self, pair):
        mono, sharded = pair
        batch = [["a", "b", "zz"], ["zz"], ["a", "zz", "c"]]
        assert mono.insert(batch) == sharded.insert(batch)
        expr = Subset(frozenset(["zz"]))
        assert sharded.evaluate(expr) == mono.evaluate(expr)
        assert sharded.pending_updates == 3
        assert sum(sharded.pending_per_shard()) == 3

    def test_pending_per_shard_counts_the_buffer_by_partitioner(self, skewed_dataset):
        sharded = UpdatableShardedOIF(skewed_dataset, 3, strategy="round_robin")
        new_ids = sharded.insert([["a", "b"]] * 6)
        assert sharded.pending_per_shard() == [2, 2, 2]
        sharded.delete([new_ids[0]])
        expected = [2, 2, 2]
        expected[new_ids[0] % 3] -= 1
        assert sharded.pending_per_shard() == expected
        sharded.flush()
        assert sharded.pending_per_shard() == [0, 0, 0]

    def test_flush_rebuilds_only_shards_with_pending_records(self, skewed_dataset):
        sharded = UpdatableShardedOIF(skewed_dataset, 4, strategy="round_robin")
        next_id = max(skewed_dataset.record_ids) + 1
        # With round-robin striping one record lands in exactly one shard.
        target_shard = next_id % 4
        sharded.insert([["a", "b"]])
        before = [sharded.index.shard_at(position) for position in range(4)]
        report = sharded.flush()
        after = [sharded.index.shard_at(position) for position in range(4)]
        assert report.records_merged == 1
        for position in range(4):
            if position == target_shard:
                assert before[position] is not after[position]
            else:
                assert before[position] is after[position]

    def test_flush_matches_monolithic_answers_and_clears_delta(self, pair):
        mono, sharded = pair
        batch = [["a", "b"], ["c", "d", "e"], ["a"]]
        mono.insert(batch)
        sharded.insert(batch)
        mono.flush()
        report = sharded.flush()
        assert report.records_merged == 3
        assert report.page_writes > 0
        assert sharded.pending_updates == 0
        expr = Or((Subset(frozenset(["a"])), Equality(frozenset(["a", "b"]))))
        assert sharded.evaluate(expr) == mono.evaluate(expr)

    def test_parallel_flush_matches_serial_results(self, skewed_dataset):
        serial = UpdatableShardedOIF(skewed_dataset, 4)
        parallel = UpdatableShardedOIF(skewed_dataset, 4)
        batch = [[item] for item in "abcdefgh"]
        serial.insert(batch)
        parallel.insert(batch)
        serial.flush(max_workers=1)
        parallel.flush(max_workers=4)
        expr = Subset(frozenset(["a"]))
        assert serial.evaluate(expr) == parallel.evaluate(expr)
        assert serial.index.shard_record_counts() == parallel.index.shard_record_counts()

    def test_evaluate_detail_merges_delta_with_zero_page_cost(self, pair):
        _, sharded = pair
        sharded.insert([["a", "qq"]])
        expr = Subset(frozenset(["qq"]))
        ids, stats = sharded.evaluate_detail(expr)
        assert ids == sharded.evaluate(expr)
        assert len(ids) == 1
        # The buffered record is memory resident: no shard reported it.
        assert sum(stat.matches for stat in stats) == 0

    def test_limit_offset_equivalence_with_monolith(self, pair):
        mono, sharded = pair
        batch = [["a", "b"], ["b", "c"]]
        mono.insert(batch)
        sharded.insert(batch)
        expr = Subset(frozenset(["b"])).limit(5, offset=2)
        # Both updatable wrappers slice the *sorted* merged stream, so the
        # limited answers agree exactly, delta included.
        assert sharded.evaluate(expr) == mono.evaluate(expr)
