"""Tests for subset query evaluation on the OIF (Algorithm 1)."""

from __future__ import annotations

import itertools

from repro.core import OrderedInvertedFile
from repro.core.query.expr import Subset
from tests.conftest import sample_queries


class TestPaperExamples:
    def test_subset_a_d_returns_101_104_114(self, paper_oif):
        # Section 2's running example: qs = {a, d} -> {101, 104, 114}.
        assert paper_oif.evaluate(Subset({"a", "d"})) == [101, 104, 114]

    def test_subset_b_c(self, paper_oif, paper_oracle):
        assert paper_oif.evaluate(Subset({"b", "c"})) == paper_oracle.evaluate(Subset({"b", "c"}))

    def test_single_item_queries(self, paper_oif, paper_oracle):
        for item in "abcdefghij":
            assert paper_oif.evaluate(Subset({item})) == paper_oracle.evaluate(Subset({item}))

    def test_all_pairs_match_oracle(self, paper_oif, paper_oracle):
        for pair in itertools.combinations("abcdefghij", 2):
            leaf = Subset(set(pair))
            assert paper_oif.evaluate(leaf) == paper_oracle.evaluate(leaf), pair

    def test_whole_vocabulary_query(self, paper_oif):
        assert paper_oif.evaluate(Subset(set("abcdefghij"))) == []

    def test_unknown_item_yields_empty(self, paper_oif):
        assert paper_oif.evaluate(Subset({"a", "unknown"})) == []

    def test_query_result_is_sorted_original_ids(self, paper_oif):
        result = paper_oif.evaluate(Subset({"a", "b"}))
        assert result == sorted(result)
        assert all(101 <= record_id <= 118 for record_id in result)


class TestAgainstOracle:
    def test_random_queries_match_oracle(self, skewed_oif, skewed_oracle, skewed_dataset):
        for query in sample_queries(skewed_dataset, count=60, max_size=4, seed=11):
            leaf = Subset(query)
            assert skewed_oif.evaluate(leaf) == skewed_oracle.evaluate(leaf), query

    def test_larger_dataset_multiblock_lists(self, larger_dataset):
        oif = OrderedInvertedFile(larger_dataset, block_capacity=16)
        from repro.baselines import NaiveScanIndex

        oracle = NaiveScanIndex(larger_dataset)
        for query in sample_queries(larger_dataset, count=30, max_size=3, seed=5):
            assert oif.evaluate(Subset(query)) == oracle.evaluate(Subset(query)), query

    def test_queries_with_most_frequent_item(self, skewed_oif, skewed_oracle):
        # The most frequent item has an empty inverted list (metadata only),
        # which exercises lines 11-14 of Algorithm 1.
        top = skewed_oif.order.item_at(0)
        second = skewed_oif.order.item_at(1)
        rare = skewed_oif.order.item_at(skewed_oif.domain_size - 1)
        for query in ({top}, {top, second}, {top, rare}, {top, second, rare}):
            leaf = Subset(query)
            assert skewed_oif.evaluate(leaf) == skewed_oracle.evaluate(leaf), query

    def test_queries_of_only_rare_items(self, skewed_oif, skewed_oracle):
        rare_items = [
            skewed_oif.order.item_at(rank)
            for rank in range(skewed_oif.domain_size - 3, skewed_oif.domain_size)
        ]
        for size in (1, 2, 3):
            query = set(rare_items[:size])
            assert skewed_oif.evaluate(Subset(query)) == skewed_oracle.evaluate(Subset(query))


class TestPruning:
    def test_subset_reads_fewer_pages_than_whole_lists(self, larger_dataset):
        oif = OrderedInvertedFile(larger_dataset, block_capacity=16)
        inverted_lists_pages = oif.env.page_file.num_pages
        # A selective query touching frequent items should not scan the index fully.
        frequent = [oif.order.item_at(1), oif.order.item_at(2), oif.order.item_at(3)]
        oif.drop_cache()
        before = oif.stats.snapshot()
        oif.evaluate(Subset(set(frequent)))
        delta = oif.stats.since(before)
        assert 0 < delta.page_reads < inverted_lists_pages

    def test_candidate_range_narrowing_does_not_change_answers(self, skewed_dataset):
        narrowed = OrderedInvertedFile(skewed_dataset, narrow_candidate_range=True)
        plain = OrderedInvertedFile(skewed_dataset, narrow_candidate_range=False)
        for query in sample_queries(skewed_dataset, count=25, max_size=4, seed=3):
            assert narrowed.evaluate(Subset(query)) == plain.evaluate(Subset(query))

    def test_narrowing_never_increases_page_accesses(self, larger_dataset):
        narrowed = OrderedInvertedFile(larger_dataset, block_capacity=16)
        plain = OrderedInvertedFile(
            larger_dataset, block_capacity=16, narrow_candidate_range=False
        )
        for query in sample_queries(larger_dataset, count=10, max_size=3, seed=9):
            narrowed.drop_cache()
            plain.drop_cache()
            before_narrowed = narrowed.stats.snapshot()
            narrowed.evaluate(Subset(query))
            narrowed_pages = narrowed.stats.since(before_narrowed).page_reads
            before_plain = plain.stats.snapshot()
            plain.evaluate(Subset(query))
            plain_pages = plain.stats.since(before_plain).page_reads
            assert narrowed_pages <= plain_pages


class TestEdgeCases:
    def test_duplicate_items_in_query_are_collapsed(self, paper_oif):
        assert paper_oif.evaluate(Subset(["a", "a", "d"])) == [101, 104, 114]

    def test_query_larger_than_any_record(self, skewed_oif):
        items = [skewed_oif.order.item_at(rank) for rank in range(10)]
        assert skewed_oif.evaluate(Subset(set(items))) == []

    def test_dataset_of_identical_records(self):
        from repro.core import Dataset

        dataset = Dataset.from_transactions([{"x", "y"}] * 25)
        oif = OrderedInvertedFile(dataset, block_capacity=4)
        assert oif.evaluate(Subset({"x"})) == list(range(1, 26))
        assert oif.evaluate(Subset({"x", "y"})) == list(range(1, 26))
        assert oif.evaluate(Subset({"y", "z"})) == []

    def test_single_record_dataset(self):
        from repro.core import Dataset

        dataset = Dataset.from_transactions([{"p", "q", "r"}])
        oif = OrderedInvertedFile(dataset)
        assert oif.evaluate(Subset({"p"})) == [1]
        assert oif.evaluate(Subset({"p", "r"})) == [1]
        assert oif.evaluate(Subset({"p", "z"})) == []


class TestSingleItemStreamOrder:
    """Regression: the single-item evaluation relies on the scan being sorted.

    ``_single_item_subset`` deliberately applies **no sort**: the block scan
    must yield strictly increasing internal ids (block tags order exactly
    like the ids they cover), and the metadata region — records whose
    *smallest* item is the queried one — must start after every id the list
    itself references.  These tests pin both invariants, item by item.
    """

    def test_internal_ids_ascend_without_sorting(self, skewed_oif):
        from repro.core.queries.subset import _single_item_subset

        checked = 0
        for rank in range(skewed_oif.domain_size):
            internal_ids = _single_item_subset(skewed_oif, rank)
            assert internal_ids == sorted(internal_ids), (
                f"single-item scan of rank {rank} yielded unsorted ids"
            )
            assert len(set(internal_ids)) == len(internal_ids)
            checked += len(internal_ids)
        assert checked  # the sweep exercised non-empty lists

    def test_list_ids_all_precede_the_metadata_region(self, skewed_oif):
        from repro.core.roi import subset_roi

        for rank in range(skewed_oif.domain_size):
            region = skewed_oif.metadata.region_for(rank)
            if region is None:
                continue
            roi = subset_roi((rank,), skewed_oif.domain_size)
            list_ids = [
                internal_id
                for _key, block in skewed_oif.scan_blocks(rank, roi)
                for internal_id in block.columns().ids
            ]
            if list_ids:
                assert max(list_ids) < region.lower

    def test_answers_match_oracle(self, skewed_oif, skewed_oracle):
        for rank in range(0, skewed_oif.domain_size, 7):
            item = skewed_oif.order.item_at(rank)
            assert skewed_oif.evaluate(Subset({item})) == skewed_oracle.evaluate(Subset({item}))
