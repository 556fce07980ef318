"""Tests for the classic inverted file baseline."""

from __future__ import annotations

import itertools

import pytest

from repro.baselines import InvertedFile, NaiveScanIndex
from repro.core import Dataset
from repro.core.query.expr import Equality, Subset, Superset, leaf_for
from repro.errors import QueryError
from tests.conftest import sample_queries


class TestPaperExamples:
    def test_subset_example(self, paper_dataset):
        index = InvertedFile(paper_dataset)
        assert index.evaluate(Subset({"a", "d"})) == [101, 104, 114]

    def test_superset_example(self, paper_dataset):
        index = InvertedFile(paper_dataset)
        assert index.evaluate(Superset({"a", "c"})) == [106, 113]

    def test_equality_example(self, paper_dataset):
        index = InvertedFile(paper_dataset)
        assert index.evaluate(Equality({"a", "c"})) == [106]

    def test_all_pairs_match_oracle(self, paper_dataset, paper_oracle):
        index = InvertedFile(paper_dataset)
        for pair in itertools.combinations("abcdefghij", 2):
            for query_type in ("subset", "equality", "superset"):
                leaf = leaf_for(query_type, set(pair))
                assert index.evaluate(leaf) == paper_oracle.evaluate(leaf)


class TestStructure:
    def test_build_report(self, skewed_if, skewed_dataset):
        report = skewed_if.build_report
        assert report is not None
        assert report.num_records == len(skewed_dataset)
        assert report.num_postings == skewed_dataset.total_postings
        assert report.index_pages > 0

    def test_fetch_list_returns_sorted_original_ids(self, skewed_if, skewed_dataset):
        for item in list(skewed_dataset.vocabulary)[:5]:
            postings = skewed_if.fetch_list(item)
            ids = [posting.record_id for posting in postings]
            assert ids == sorted(ids)
            assert len(ids) == skewed_dataset.vocabulary.support(item)

    def test_fetch_list_unknown_item(self, skewed_if):
        assert skewed_if.fetch_list("missing-item") == []

    def test_list_page_count(self, skewed_if, skewed_dataset):
        top_item = skewed_if.order.item_at(0)
        assert skewed_if.list_page_count(top_item) >= 1
        assert skewed_if.list_page_count("missing-item") == 0

    def test_whole_list_is_fetched_per_query_item(self, larger_dataset):
        # The IF's cost for one item equals the pages of that item's list
        # (whole-tuple retrieval), independent of the query's selectivity.
        index = InvertedFile(larger_dataset)
        top_item = index.order.item_at(0)
        index.drop_cache()
        before = index.stats.snapshot()
        index.evaluate(Subset({top_item}))
        pages = index.stats.since(before).page_reads
        assert pages >= index.list_page_count(top_item)


class TestAgainstOracle:
    def test_random_queries(self, skewed_if, skewed_oracle, skewed_dataset):
        for query in sample_queries(skewed_dataset, count=50, max_size=4, seed=55):
            for query_type in ("subset", "equality", "superset"):
                leaf = leaf_for(query_type, query)
                assert skewed_if.evaluate(leaf) == skewed_oracle.evaluate(leaf)

    def test_uncompressed_variant(self, skewed_dataset, skewed_oracle):
        index = InvertedFile(skewed_dataset, compress=False)
        for query in sample_queries(skewed_dataset, count=25, max_size=4, seed=56):
            assert index.evaluate(Subset(query)) == skewed_oracle.evaluate(Subset(query))

    def test_unknown_items(self, skewed_if):
        assert skewed_if.evaluate(Subset({"missing-item"})) == []
        assert skewed_if.evaluate(Equality({"missing-item"})) == []
        assert skewed_if.evaluate(Superset({"missing-item"})) == []

    def test_empty_query_rejected(self, skewed_if):
        with pytest.raises(QueryError):
            skewed_if.evaluate(Subset(set()))


class TestMergeRecords:
    def test_merge_appends_postings(self):
        dataset = Dataset.from_transactions([{"a", "b"}, {"b", "c"}, {"a"}])
        index = InvertedFile(dataset)
        new_records = dataset.extend([{"a", "c"}, {"b"}])
        written = index.merge_records(new_records)
        assert written == 3
        assert index.evaluate(Subset({"a"})) == [1, 3, 4]
        assert index.evaluate(Subset({"b"})) == [1, 2, 5]
        assert index.evaluate(Superset({"a", "c"})) == [3, 4]

    def test_merge_requires_known_items(self):
        dataset = Dataset.from_transactions([{"a"}])
        index = InvertedFile(dataset)
        new_records = dataset.extend([{"zz"}])
        with pytest.raises(QueryError):
            index.merge_records(new_records)

    def test_repeated_merges_stay_consistent(self):
        dataset = Dataset.from_transactions([{"a", "b"}, {"b"}])
        index = InvertedFile(dataset)
        for batch in ([{"a"}], [{"a", "b"}], [{"b"}]):
            new_records = dataset.extend(batch)
            index.merge_records(new_records)
        oracle = NaiveScanIndex(dataset)
        for query in ({"a"}, {"b"}, {"a", "b"}):
            for query_type in ("subset", "equality", "superset"):
                leaf = leaf_for(query_type, query)
                assert index.evaluate(leaf) == oracle.evaluate(leaf)
