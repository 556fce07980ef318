"""Decoded-page cache: budget/LRU semantics, accounting, invalidation.

The cache's contract has two halves:

* **semantics** — byte-budgeted LRU keyed by ``(page_id, offset)`` for
  posting blocks and by ``page_id`` for B-tree nodes, cleared on
  rebuild/flush/``drop_cache``, a node discarded when its page is rewritten,
  exact hit/miss counters under N threads;
* **accounting neutrality** — a decode hit skips CPU, never simulated I/O:
  page counts and result sets are bit-identical with the cache on, off, hot
  or cold, which is what keeps the paper's page-access figures comparable.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import pytest

from repro.compression.postings import PostingColumns, decode_columns, encode_columns
from repro.core import Dataset, OrderedInvertedFile
from repro.core.query import Equality, Subset, Superset
from repro.durability.state import copy_environment, dump_state, load_environment, load_oif
from repro.errors import BufferPoolError
from repro.storage.block_cache import DEFAULT_DECODED_CACHE_BYTES, DecodedBlockCache
from repro.storage.btree import BTree
from repro.storage.buffer_pool import BufferPool
from repro.storage.pager import MemoryPageFile
from repro.storage.stats import IOSnapshot, IOStatistics, ReadContext
from tests.conftest import PAPER_TRANSACTIONS, make_skewed_transactions


def _columns(count: int, start: int = 1) -> PostingColumns:
    ids = list(range(start, start + count))
    return decode_columns(encode_columns(ids, [2] * count))


class TestCacheSemantics:
    def test_get_put_and_counters(self):
        cache = DecodedBlockCache(1 << 16)
        assert cache.get((1, 0)) is None
        cache.put((1, 0), _columns(4))
        hit = cache.get((1, 0))
        assert list(hit.ids) == [1, 2, 3, 4]
        assert cache.hits == 1 and cache.misses == 1
        assert cache.resident_blocks == 1

    def test_byte_budget_evicts_lru(self):
        entry = _columns(8)
        budget = entry.nbytes * 2  # room for exactly two entries
        cache = DecodedBlockCache(budget)
        cache.put((1, 0), _columns(8))
        cache.put((2, 0), _columns(8))
        cache.get((1, 0))  # freshen (1, 0): (2, 0) becomes the LRU victim
        cache.put((3, 0), _columns(8))
        assert cache.get((1, 0)) is not None
        assert cache.get((2, 0)) is None
        assert cache.get((3, 0)) is not None
        assert cache.evictions == 1
        assert cache.resident_bytes <= budget

    def test_oversized_entry_is_not_cached(self):
        cache = DecodedBlockCache(8)
        cache.put((1, 0), _columns(100))
        assert cache.resident_blocks == 0

    def test_invalidate_clears_everything(self):
        cache = DecodedBlockCache(1 << 16)
        cache.put((1, 0), _columns(4))
        cache.invalidate()
        assert cache.resident_blocks == 0
        assert cache.resident_bytes == 0
        assert cache.invalidations == 1
        assert cache.get((1, 0)) is None

    def test_non_positive_budget_rejected(self):
        with pytest.raises(BufferPoolError):
            DecodedBlockCache(0)

    def test_lookups_charge_context_and_stats(self):
        stats = IOStatistics()
        cache = DecodedBlockCache(1 << 16, stats=stats)
        ctx = ReadContext()
        cache.get((1, 0), ctx)
        cache.put((1, 0), _columns(4))
        cache.get((1, 0), ctx)
        assert (ctx.decoded_hits, ctx.decoded_misses) == (1, 1)
        assert (stats.decoded_hits, stats.decoded_misses) == (1, 1)
        snapshot = ctx.snapshot()
        assert snapshot.decoded_hits == 1 and snapshot.decoded_misses == 1

    def test_hit_miss_counters_exact_under_threads(self):
        stats = IOStatistics()
        cache = DecodedBlockCache(1 << 20, stats=stats)
        keys = [(page, 0) for page in range(8)]
        lookups_per_thread = 400
        threads = 6
        contexts = [ReadContext() for _ in range(threads)]
        barrier = threading.Barrier(threads)

        def worker(ctx: ReadContext) -> None:
            barrier.wait(timeout=10.0)
            for step in range(lookups_per_thread):
                key = keys[step % len(keys)]
                if cache.get(key, ctx) is None:
                    cache.put(key, _columns(4))

        pool = [threading.Thread(target=worker, args=(ctx,)) for ctx in contexts]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in pool)

        total_lookups = threads * lookups_per_thread
        assert cache.hits + cache.misses == total_lookups
        assert sum(c.decoded_hits + c.decoded_misses for c in contexts) == total_lookups
        assert sum(c.decoded_hits for c in contexts) == cache.hits == stats.decoded_hits
        assert sum(c.decoded_misses for c in contexts) == cache.misses == stats.decoded_misses


class TestOIFIntegration:
    @pytest.fixture()
    def dataset(self) -> Dataset:
        return Dataset.from_transactions(PAPER_TRANSACTIONS)

    def test_repeat_query_hits_the_cache_with_identical_io(self, dataset):
        oif = OrderedInvertedFile(dataset, block_capacity=2)
        expr = Subset(frozenset(["a", "b"]))

        oif.env.drop_cache()  # cold buffer pool, decoded cache intact
        first = oif.measured_execute(expr)
        oif.env.drop_cache()
        second = oif.measured_execute(expr)

        assert second.record_ids == first.record_ids
        # The decoded cache removes decode CPU only: the repeat traversal
        # still pays exactly the same page accesses.
        assert second.page_accesses == first.page_accesses
        assert second.random_reads == first.random_reads
        assert second.sequential_reads == first.sequential_reads
        assert first.decoded_misses > 0
        assert second.decoded_hits == first.decoded_hits + first.decoded_misses
        assert second.decoded_misses == 0

    def test_results_and_pages_identical_with_cache_disabled(self, dataset):
        cached = OrderedInvertedFile(dataset, block_capacity=2)
        uncached = OrderedInvertedFile(dataset, block_capacity=2, decoded_cache_bytes=0)
        assert uncached.decoded_cache is None
        for items in ({"a"}, {"a", "b"}, {"c", "d"}, {"a", "b", "c"}):
            expr = Subset(frozenset(items))
            for _ in range(2):  # second round hits the warm decoded cache
                with_cache = cached.measured_execute(expr)
                without = uncached.measured_execute(expr)
                assert with_cache.record_ids == without.record_ids
                assert with_cache.page_accesses == without.page_accesses

    def test_rebuild_and_drop_cache_invalidate(self, dataset):
        oif = OrderedInvertedFile(dataset, block_capacity=2)
        # "b" has a real inverted list ("a", the most frequent item, is fully
        # covered by its metadata region, so querying it decodes no blocks).
        oif.evaluate(Subset(frozenset(["b"])))
        assert oif.decoded_cache.resident_blocks > 0
        invalidations = oif.decoded_cache.invalidations
        oif.drop_cache()
        assert oif.decoded_cache.resident_blocks == 0
        assert oif.decoded_cache.invalidations == invalidations + 1
        oif.evaluate(Subset(frozenset(["b"])))
        assert oif.decoded_cache.resident_blocks > 0
        oif.build()
        assert oif.decoded_cache.resident_blocks == 0

    def test_counters_surface_in_query_result(self, dataset):
        oif = OrderedInvertedFile(dataset, block_capacity=2)
        oif.drop_cache()
        result = oif.measured_execute(Subset(frozenset(["a", "b"])))
        assert result.decoded_hits + result.decoded_misses > 0


def _io_pages(snapshot: IOSnapshot) -> IOSnapshot:
    """The page columns of a snapshot (decoded counters zeroed)."""
    return dataclasses.replace(snapshot, decoded_hits=0, decoded_misses=0)


class TestNodeCache:
    """B-tree nodes share the decoded cache, under the same accounting contract."""

    @pytest.fixture(scope="class")
    def dataset(self) -> Dataset:
        return Dataset.from_transactions(make_skewed_transactions(1500, max_length=8))

    @staticmethod
    def _oif(dataset: Dataset, decoded_cache_bytes=DEFAULT_DECODED_CACHE_BYTES):
        # Small pages and blocks give a three-level block table.
        oif = OrderedInvertedFile(
            dataset,
            block_capacity=4,
            page_size=512,
            decoded_cache_bytes=decoded_cache_bytes,
        )
        assert oif._table.btree.height >= 3
        return oif

    @staticmethod
    def _snapshot(oif, expr):
        cursor = oif.execute(expr)
        ids = sorted(cursor.fetch_all())
        return ids, cursor.io_delta()

    @pytest.mark.parametrize("leaf", [Subset, Equality, Superset])
    def test_snapshots_identical_disabled_cold_and_warm(self, dataset, leaf):
        uncached = self._oif(dataset, decoded_cache_bytes=0)
        cached = self._oif(dataset)
        assert uncached._table.btree.node_cache is None
        assert cached._table.btree.node_cache is cached.decoded_cache
        for items in ("ab", "bc", "cdf", "aeg", "bdhk"):
            expr = leaf(frozenset(items))
            uncached.drop_cache()
            reference_ids, reference = self._snapshot(uncached, expr)
            cached.drop_cache()
            cold_ids, cold = self._snapshot(cached, expr)
            misses = cached.decoded_cache.node_misses
            cached.env.drop_cache()  # cold pool, warm decoded cache
            warm_ids, warm = self._snapshot(cached, expr)

            assert reference_ids == cold_ids == warm_ids
            assert reference.decoded_hits == reference.decoded_misses == 0
            assert _io_pages(cold) == _io_pages(warm) == reference
            assert (cold.random_reads, cold.sequential_reads) == (
                reference.random_reads,
                reference.sequential_reads,
            )
            # Block lookups are counted exactly as before: all hits when warm.
            assert warm.decoded_hits == cold.decoded_hits + cold.decoded_misses
            assert warm.decoded_misses == 0
            # The warm repeat decoded no node at all.
            assert cached.decoded_cache.node_misses == misses

    def test_reopened_index_shares_its_cache_with_its_table(self, dataset, tmp_path):
        built = OrderedInvertedFile(dataset, block_capacity=4, catalog_pages=True)
        image = str(tmp_path / "pages.img")
        copy_environment(built.env, image)
        env = load_environment(image, built.env.page_size, 32 * 1024)
        reopened = load_oif(env, dump_state(built, {"block_capacity": 4}))
        assert reopened._table.btree.node_cache is reopened.decoded_cache
        expr = Superset(frozenset("abcdef"))
        reopened.drop_cache()
        built.drop_cache()
        first = reopened.measured_execute(expr)
        assert first.record_ids == built.measured_execute(expr).record_ids
        assert reopened.decoded_cache.node_misses > 0

    def test_cold_superset_decodes_each_node_page_once(self, dataset):
        oif = self._oif(dataset)
        tree = oif._table.btree
        visited: list[int] = []
        read_node = tree._read_node

        def recording_read_node(page_id, ctx=None):
            visited.append(page_id)
            return read_node(page_id, ctx)

        tree._read_node = recording_read_node
        oif.drop_cache()
        cache = oif.decoded_cache
        hits, misses = cache.node_hits, cache.node_misses
        oif.evaluate(Superset(frozenset("abcdefgh")))

        distinct = len(set(visited))
        assert len(visited) > distinct  # re-descents revisit pages
        assert cache.node_misses - misses == distinct
        assert cache.node_hits - hits == len(visited) - distinct
        assert cache.counters()["resident_nodes"] == distinct
        assert cache.counters()["node_misses"] == cache.node_misses

    def test_writes_on_a_cached_tree_are_visible_to_reads(self):
        cache = DecodedBlockCache(1 << 20)
        tree = _cached_tree(cache)
        for i in range(300):
            tree.insert(_key(i), b"old")
        assert tree.height >= 2
        assert [tree.get(_key(i)) for i in range(300)] == [b"old"] * 300
        assert cache.counters()["resident_nodes"] > 0
        # A reader may still hold a cached node while a writer runs.
        held, _ = tree._descend_to_leaf(_key(0))
        held_image = (list(held.keys), list(held.values), held.next_leaf)

        for i in range(0, 300, 3):
            tree.insert(_key(i), b"new%d" % i, replace=True)
        for i in range(1, 300, 3):
            tree.delete(_key(i))
        for i in range(300, 500):  # splits rewrite parents and siblings
            tree.insert(_key(i), b"grown")
        tree.check_invariants()
        assert (held.keys, held.values, held.next_leaf) == held_image  # never mutated
        for i in range(500):
            if i % 3 == 1 and i < 300:
                assert not tree.contains(_key(i))
            elif i % 3 == 0 and i < 300:
                assert tree.get(_key(i)) == b"new%d" % i
            else:
                assert tree.get(_key(i)) == (b"old" if i < 300 else b"grown")
        assert [k for k, _ in tree.seek(_key(0))][:4] == [_key(0), _key(2), _key(3), _key(5)]

        tree.bulk_load((_key(i), b"bulk") for i in range(1000, 1400))
        tree.check_invariants()
        assert tree.get(_key(1200)) == b"bulk"
        assert not tree.contains(_key(0))
        assert [k for k, _ in tree.seek(b"")] == [_key(i) for i in range(1000, 1400)]

    def test_node_entries_share_budget_and_discard(self):
        tree = _cached_tree(DecodedBlockCache(1 << 20))
        for i in range(300):
            tree.insert(_key(i), b"v")
        root = tree._read_node(tree.root_page_id)
        assert root.nbytes > sys.getsizeof(root.keys) + sum(map(len, root.keys))
        cache = DecodedBlockCache(root.nbytes + _columns(4).nbytes)
        cache.put((1, 0), _columns(4))
        tree.node_cache = cache
        tree._read_node(tree.root_page_id)  # the node joins the block's budget
        assert _residents(cache) == (1, 1)
        cache.put((2, 0), _columns(4))  # over budget: the LRU entry goes
        assert cache.evictions == 1
        assert _residents(cache) == (1, 1)
        assert cache.get((1, 0)) is None

        cache.discard(tree.root_page_id)
        assert _residents(cache) == (1, 0)
        assert cache.resident_bytes == _columns(4).nbytes
        cache.discard(tree.root_page_id)  # absent: no-op
        assert cache.resident_bytes == _columns(4).nbytes

    def test_contexts_sum_to_totals_under_eight_threads(self, dataset):
        oif = self._oif(dataset)
        exprs = [
            leaf(frozenset(items))
            for leaf in (Subset, Equality, Superset)
            for items in ("ab", "cd", "aceg", "bfh")
        ]
        cache = oif.decoded_cache
        lookups = cache.node_hits + cache.node_misses
        expected = [sorted(oif.evaluate(expr)) for expr in exprs]
        node_lookups_per_pass = cache.node_hits + cache.node_misses - lookups

        oif.drop_cache()
        lookups = cache.node_hits + cache.node_misses
        before = oif.stats.snapshot()
        threads = 8
        contexts: list[list[ReadContext]] = [[] for _ in range(threads)]
        barrier = threading.Barrier(threads)
        errors: list[BaseException] = []

        def worker(slot: int) -> None:
            try:
                barrier.wait(timeout=10.0)
                for position in range(len(exprs)):
                    index = (slot + position) % len(exprs)
                    cursor = oif.execute(exprs[index])
                    if sorted(cursor.fetch_all()) != expected[index]:
                        raise AssertionError(f"wrong answer for {exprs[index]}")
                    contexts[slot].append(cursor.ctx)
            except Exception as error:  # surfaced below
                errors.append(error)

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pool = [threading.Thread(target=worker, args=(slot,)) for slot in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(switch_interval)
        assert not errors
        assert not any(thread.is_alive() for thread in pool)

        total = oif.stats.snapshot() - before
        summed = sum((ctx.snapshot() for group in contexts for ctx in group), IOSnapshot())
        assert summed == total
        # Every node visit is one counted lookup: none lost between threads.
        assert cache.node_hits + cache.node_misses - lookups == threads * node_lookups_per_pass


def _residents(cache: DecodedBlockCache) -> tuple[int, int]:
    counters = cache.counters()
    return counters["resident_blocks"], counters["resident_nodes"]


def _key(i: int) -> bytes:
    return b"k%08d" % i


def _cached_tree(cache: DecodedBlockCache) -> BTree:
    pool = BufferPool(MemoryPageFile(page_size=256), capacity=64, stats=IOStatistics())
    tree = BTree(pool)
    tree.node_cache = cache
    return tree
