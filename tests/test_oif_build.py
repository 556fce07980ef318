"""Tests for Ordered Inverted File construction and structure."""

from __future__ import annotations

import pytest

from repro.core import OrderedInvertedFile
from repro.core.query.expr import Equality, Subset, Superset
from repro.core.roi import RangeOfInterest
from repro.errors import IndexNotBuiltError, QueryError
from repro.storage import Environment


class TestBuildReport:
    def test_report_counts(self, paper_oif, paper_dataset):
        report = paper_oif.build_report
        assert report is not None
        assert report.num_records == len(paper_dataset)
        assert report.num_items == paper_dataset.domain_size
        # One posting per (record, item) pair minus one per record (metadata).
        assert report.num_postings == paper_dataset.total_postings - len(paper_dataset)
        assert report.postings_saved_by_metadata == len(paper_dataset)
        assert report.num_blocks >= 1
        assert report.index_pages > 0
        assert report.build_seconds >= 0

    def test_no_metadata_stores_all_postings(self, paper_dataset):
        oif = OrderedInvertedFile(paper_dataset, use_metadata=False)
        assert oif.build_report is not None
        assert oif.build_report.num_postings == paper_dataset.total_postings
        assert oif.build_report.postings_saved_by_metadata == 0

    def test_deferred_build(self, paper_dataset):
        oif = OrderedInvertedFile(paper_dataset, build=False)
        with pytest.raises(IndexNotBuiltError):
            _ = oif.metadata
        oif.build()
        assert oif.build_report is not None

    def test_custom_environment_is_used(self, paper_dataset):
        env = Environment(page_size=1024, cache_bytes=8192)
        oif = OrderedInvertedFile(paper_dataset, env=env)
        assert oif.env is env
        assert env.page_file.num_pages > 0


class TestStructure:
    def test_btree_invariants_hold(self, skewed_oif):
        skewed_oif._table.btree.check_invariants()

    def test_blocks_are_grouped_by_item_and_sorted(self, skewed_oif):
        from repro.core.blocks import BlockKey

        previous = None
        for key, _value in skewed_oif._table.cursor(b""):
            decoded = BlockKey.decode(key)
            if previous is not None:
                assert (previous.item_rank, previous.tag, previous.last_id) <= (
                    decoded.item_rank,
                    decoded.tag,
                    decoded.last_id,
                )
            previous = decoded

    def test_block_count_matches_report(self, skewed_oif):
        counted = sum(1 for _ in skewed_oif._table.cursor(b""))
        assert counted == skewed_oif.build_report.num_blocks

    def test_lists_exclude_metadata_region_records(self, paper_oif):
        # The inverted list of the most frequent item must be empty: every
        # record containing it has it as its smallest item.
        whole = RangeOfInterest(lower=(), upper=(paper_oif.domain_size - 1,))
        blocks = list(paper_oif.scan_blocks(0, whole))
        assert blocks == []

    def test_posting_ids_are_increasing_within_a_list(self, skewed_oif):
        whole = RangeOfInterest(lower=(), upper=(skewed_oif.domain_size - 1,))
        for rank in range(skewed_oif.domain_size):
            previous = 0
            for _key, block in skewed_oif.scan_blocks(rank, whole):
                for posting in block.postings():
                    assert posting.record_id > previous
                    previous = posting.record_id

    def test_paper_example_list_of_b_matches_figure5(self, paper_oif):
        # Figure 5: with the metadata table, b's inverted list holds records
        # 2..8 (the records containing b whose smallest item is a).
        rank_b = paper_oif.order.rank_of("b")
        whole = RangeOfInterest(lower=(), upper=(paper_oif.domain_size - 1,))
        ids = [
            posting.record_id
            for _key, block in paper_oif.scan_blocks(rank_b, whole)
            for posting in block.postings()
        ]
        records = {frozenset(paper_oif.ordered.record(i).items) for i in ids}
        # Exactly the records that contain both a and b.
        expected = {
            frozenset(r.items)
            for r in paper_oif.dataset
            if {"a", "b"} <= r.items
        }
        assert records == expected

    def test_posting_lengths_match_record_cardinalities(self, skewed_oif):
        whole = RangeOfInterest(lower=(), upper=(skewed_oif.domain_size - 1,))
        for rank in range(min(skewed_oif.domain_size, 8)):
            for _key, block in skewed_oif.scan_blocks(rank, whole):
                for posting in block.postings():
                    assert posting.length == skewed_oif.ordered.length_of(posting.record_id)

    def test_tags_are_sequence_forms_of_block_last_records(self, skewed_oif):
        whole = RangeOfInterest(lower=(), upper=(skewed_oif.domain_size - 1,))
        for rank in range(min(skewed_oif.domain_size, 6)):
            for key, block in skewed_oif.scan_blocks(rank, whole):
                postings = block.postings()
                assert key.last_id == postings[-1].record_id
                assert key.tag == skewed_oif.ordered.sequence_form_of(key.last_id)

    def test_list_block_count(self, skewed_oif):
        total = sum(
            skewed_oif.list_block_count(item)
            for item in skewed_oif.dataset.vocabulary
        )
        assert total == skewed_oif.build_report.num_blocks

    def test_list_block_count_unknown_item(self, skewed_oif):
        with pytest.raises(QueryError):
            skewed_oif.list_block_count("not-an-item")

    def test_posting_bytes_positive(self, skewed_oif):
        assert skewed_oif.posting_bytes > 0


class TestQueryHelpers:
    def test_query_ranks_known_items(self, paper_oif):
        ranks = paper_oif.query_ranks({"b", "a"})
        assert ranks == (0, 1)

    def test_query_ranks_unknown_item_returns_none(self, paper_oif):
        assert paper_oif.query_ranks({"a", "zzz"}) is None

    def test_to_original_ids(self, paper_oif):
        internal = [1, 2]
        originals = paper_oif.to_original_ids(internal)
        assert all(paper_oif.dataset.has_id(record_id) for record_id in originals)

    def test_empty_query_rejected(self, paper_oif):
        with pytest.raises(QueryError):
            paper_oif.evaluate(Subset(set()))
        with pytest.raises(QueryError):
            paper_oif.evaluate(Equality([]))
        with pytest.raises(QueryError):
            paper_oif.evaluate(Superset(()))

    def test_small_block_capacity_still_correct(self, paper_dataset):
        oif = OrderedInvertedFile(paper_dataset, block_capacity=2)
        assert oif.evaluate(Subset({"a", "d"})) == [101, 104, 114]
        assert oif.build_report.num_blocks > OrderedInvertedFile(paper_dataset).build_report.num_blocks
