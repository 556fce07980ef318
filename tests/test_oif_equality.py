"""Tests for equality query evaluation on the OIF (Section 4.2)."""

from __future__ import annotations

from repro.core import Dataset, OrderedInvertedFile
from repro.core.query.expr import Equality, Subset
from tests.conftest import sample_queries


class TestPaperExamples:
    def test_every_record_finds_itself(self, paper_oif, paper_dataset):
        for record in paper_dataset:
            result = paper_oif.evaluate(Equality(record.items))
            assert record.record_id in result

    def test_equality_returns_only_exact_matches(self, paper_oif, paper_oracle, paper_dataset):
        for record in paper_dataset:
            leaf = Equality(record.items)
            assert paper_oif.evaluate(leaf) == paper_oracle.evaluate(leaf)

    def test_subset_of_a_record_is_not_an_equality_answer(self, paper_oif):
        # {a, b} is a strict subset of several records but equals none.
        assert paper_oif.evaluate(Equality({"a", "b"})) == []

    def test_singleton_query(self, paper_oif):
        # Only record 113 is exactly {a}.
        assert paper_oif.evaluate(Equality({"a"})) == [113]

    def test_unknown_item_yields_empty(self, paper_oif):
        assert paper_oif.evaluate(Equality({"a", "nope"})) == []


class TestAgainstOracle:
    def test_existing_set_values(self, skewed_oif, skewed_oracle, skewed_dataset):
        for record in list(skewed_dataset)[::7]:
            leaf = Equality(record.items)
            assert skewed_oif.evaluate(leaf) == skewed_oracle.evaluate(leaf)

    def test_random_queries(self, skewed_oif, skewed_oracle, skewed_dataset):
        for query in sample_queries(skewed_dataset, count=50, max_size=5, seed=23):
            assert skewed_oif.evaluate(Equality(query)) == skewed_oracle.evaluate(Equality(query))

    def test_multiblock_lists(self, larger_dataset):
        from repro.baselines import NaiveScanIndex

        oif = OrderedInvertedFile(larger_dataset, block_capacity=16)
        oracle = NaiveScanIndex(larger_dataset)
        for query in sample_queries(larger_dataset, count=30, max_size=5, seed=31):
            assert oif.evaluate(Equality(query)) == oracle.evaluate(Equality(query))

    def test_duplicate_set_values_all_returned(self):
        dataset = Dataset.from_transactions([{"x", "y"}, {"x", "y"}, {"x"}, {"y"}])
        oif = OrderedInvertedFile(dataset)
        assert oif.evaluate(Equality({"x", "y"})) == [1, 2]
        assert oif.evaluate(Equality({"x"})) == [3]
        assert oif.evaluate(Equality({"y"})) == [4]


class TestCost:
    def test_equality_touches_few_pages(self, larger_dataset):
        # The RoI of an equality query is a single point, so only a handful of
        # blocks (at most a couple per query item) should be fetched.
        oif = OrderedInvertedFile(larger_dataset, block_capacity=16)
        record = max(larger_dataset, key=lambda r: r.length)
        oif.drop_cache()
        before = oif.stats.snapshot()
        oif.evaluate(Equality(record.items))
        delta = oif.stats.since(before)
        assert delta.page_reads <= 4 * record.length

    def test_equality_is_cheaper_than_subset_on_average(self, larger_dataset):
        oif = OrderedInvertedFile(larger_dataset, block_capacity=16)
        queries = [record.items for record in list(larger_dataset)[::97] if record.length >= 2]
        subset_pages = 0
        equality_pages = 0
        for items in queries:
            oif.drop_cache()
            before = oif.stats.snapshot()
            oif.evaluate(Subset(items))
            subset_pages += oif.stats.since(before).page_reads
            oif.drop_cache()
            before = oif.stats.snapshot()
            oif.evaluate(Equality(items))
            equality_pages += oif.stats.since(before).page_reads
        assert equality_pages <= subset_pages


class TestNoMetadataVariant:
    def test_equality_without_metadata_matches_oracle(
        self, skewed_oif_no_metadata, skewed_oracle, skewed_dataset
    ):
        for query in sample_queries(skewed_dataset, count=40, max_size=4, seed=41):
            leaf = Equality(query)
            assert skewed_oif_no_metadata.evaluate(leaf) == skewed_oracle.evaluate(leaf)

    def test_singleton_without_metadata(self, skewed_oif_no_metadata, skewed_oracle):
        item = skewed_oif_no_metadata.order.item_at(0)
        leaf = Equality({item})
        assert skewed_oif_no_metadata.evaluate(leaf) == skewed_oracle.evaluate(leaf)
