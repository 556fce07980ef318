"""Tests for the unordered B-tree inverted file (ordering ablation baseline)."""

from __future__ import annotations

import itertools

import pytest

from repro.baselines import UnorderedBTreeInvertedFile
from repro.core.query.expr import Equality, Subset, Superset, leaf_for
from repro.errors import QueryError
from tests.conftest import sample_queries


class TestCorrectness:
    def test_paper_examples(self, paper_dataset):
        index = UnorderedBTreeInvertedFile(paper_dataset)
        assert index.evaluate(Subset({"a", "d"})) == [101, 104, 114]
        assert index.evaluate(Superset({"a", "c"})) == [106, 113]
        assert index.evaluate(Equality({"a", "c"})) == [106]

    def test_all_pairs_match_oracle(self, paper_dataset, paper_oracle):
        index = UnorderedBTreeInvertedFile(paper_dataset)
        for pair in itertools.combinations("abcdefghij", 2):
            for query_type in ("subset", "equality", "superset"):
                leaf = leaf_for(query_type, set(pair))
                assert index.evaluate(leaf) == paper_oracle.evaluate(leaf)

    def test_random_queries(self, skewed_ubt, skewed_oracle, skewed_dataset):
        for query in sample_queries(skewed_dataset, count=50, max_size=4, seed=71):
            for query_type in ("subset", "equality", "superset"):
                leaf = leaf_for(query_type, query)
                assert skewed_ubt.evaluate(leaf) == skewed_oracle.evaluate(leaf)

    def test_small_blocks(self, skewed_dataset, skewed_oracle):
        index = UnorderedBTreeInvertedFile(skewed_dataset, block_capacity=4)
        for query in sample_queries(skewed_dataset, count=25, max_size=3, seed=72):
            assert index.evaluate(Subset(query)) == skewed_oracle.evaluate(Subset(query))

    def test_unknown_items(self, skewed_ubt):
        assert skewed_ubt.evaluate(Subset({"missing"})) == []
        assert skewed_ubt.evaluate(Superset({"missing"})) == []

    def test_empty_query_rejected(self, skewed_ubt):
        with pytest.raises(QueryError):
            skewed_ubt.evaluate(Equality(set()))


class TestStructure:
    def test_records_keep_original_ids(self, skewed_ubt, skewed_dataset):
        item = skewed_ubt.order.item_at(0)
        rank = skewed_ubt.order.rank_of(item)
        ids = [posting.record_id for posting in skewed_ubt.scan_list(rank)]
        assert ids == sorted(ids)
        assert set(ids) <= set(skewed_dataset.record_ids)

    def test_scan_list_window(self, skewed_ubt):
        rank = skewed_ubt.order.rank_of(skewed_ubt.order.item_at(0))
        full = [posting.record_id for posting in skewed_ubt.scan_list(rank)]
        low, high = full[len(full) // 4], full[3 * len(full) // 4]
        window = [posting.record_id for posting in skewed_ubt.scan_list(rank, low, high)]
        assert window == [record_id for record_id in full if low <= record_id <= high]

    def test_block_count_positive(self, skewed_ubt):
        assert skewed_ubt.num_blocks > 0

    def test_id_window_skips_pages(self, larger_dataset):
        index = UnorderedBTreeInvertedFile(
            larger_dataset, block_capacity=8, page_size=512, cache_bytes=2048
        )
        rank = 0
        full_ids = [posting.record_id for posting in index.scan_list(rank)]
        middle = full_ids[len(full_ids) // 2]
        index.drop_cache()
        before = index.stats.snapshot()
        list(index.scan_list(rank))
        full_pages = index.stats.since(before).page_reads
        index.drop_cache()
        before = index.stats.snapshot()
        list(index.scan_list(rank, middle, middle + 1))
        window_pages = index.stats.since(before).page_reads
        assert window_pages < full_pages


class TestComparisonWithOIF:
    def test_same_answers_as_oif(self, skewed_ubt, skewed_oif, skewed_dataset):
        for query in sample_queries(skewed_dataset, count=30, max_size=4, seed=73):
            for query_type in ("subset", "equality", "superset"):
                leaf = leaf_for(query_type, query)
                assert skewed_ubt.evaluate(leaf) == skewed_oif.evaluate(leaf)
