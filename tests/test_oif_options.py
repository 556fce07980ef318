"""Tests for the OIF's configuration options (ablation switches)."""

from __future__ import annotations

import pytest

from repro.baselines import NaiveScanIndex
from repro.core import OrderedInvertedFile
from repro.core.items import ItemOrder
from repro.core.query.expr import leaf_for
from tests.conftest import sample_queries


@pytest.fixture(scope="module")
def oracle(skewed_dataset):
    return NaiveScanIndex(skewed_dataset)


def assert_index_matches_oracle(index, oracle, dataset, seed, count=30):
    for query in sample_queries(dataset, count=count, max_size=4, seed=seed):
        for query_type in ("subset", "equality", "superset"):
            leaf = leaf_for(query_type, query)
            assert index.evaluate(leaf) == oracle.evaluate(leaf), (query_type, query)


class TestVariants:
    def test_uncompressed_variant_is_correct(self, skewed_dataset, oracle):
        index = OrderedInvertedFile(skewed_dataset, compress=False)
        assert_index_matches_oracle(index, oracle, skewed_dataset, seed=101)

    def test_uncompressed_variant_is_larger(self, skewed_dataset):
        compressed = OrderedInvertedFile(skewed_dataset, compress=True)
        plain = OrderedInvertedFile(skewed_dataset, compress=False)
        assert plain.posting_bytes > compressed.posting_bytes

    def test_no_metadata_variant_is_correct(self, skewed_dataset, oracle):
        index = OrderedInvertedFile(skewed_dataset, use_metadata=False)
        assert_index_matches_oracle(index, oracle, skewed_dataset, seed=102)

    def test_metadata_saves_one_posting_per_record(self, skewed_dataset):
        with_metadata = OrderedInvertedFile(skewed_dataset, use_metadata=True)
        without = OrderedInvertedFile(skewed_dataset, use_metadata=False)
        assert (
            without.build_report.num_postings - with_metadata.build_report.num_postings
            == len(skewed_dataset)
        )

    def test_tag_prefix_variant_is_correct(self, skewed_dataset, oracle):
        index = OrderedInvertedFile(skewed_dataset, tag_prefix=2)
        assert_index_matches_oracle(index, oracle, skewed_dataset, seed=103)

    def test_tag_prefix_shrinks_the_index(self, larger_dataset):
        full_tags = OrderedInvertedFile(larger_dataset, block_capacity=16)
        short_tags = OrderedInvertedFile(larger_dataset, block_capacity=16, tag_prefix=1)
        assert short_tags.index_size_bytes <= full_tags.index_size_bytes

    def test_no_narrowing_variant_is_correct(self, skewed_dataset, oracle):
        index = OrderedInvertedFile(skewed_dataset, narrow_candidate_range=False)
        assert_index_matches_oracle(index, oracle, skewed_dataset, seed=104)

    def test_small_page_size(self, skewed_dataset, oracle):
        index = OrderedInvertedFile(
            skewed_dataset, page_size=512, cache_bytes=2048, block_capacity=8
        )
        assert_index_matches_oracle(index, oracle, skewed_dataset, seed=105, count=15)

    def test_alphabetic_item_order_still_correct(self, skewed_dataset, oracle):
        # The ordering affects only performance; correctness must hold for any
        # total order over the vocabulary.
        alphabetic = ItemOrder(sorted(skewed_dataset.vocabulary, key=str))
        index = OrderedInvertedFile(skewed_dataset, item_order=alphabetic)
        assert_index_matches_oracle(index, oracle, skewed_dataset, seed=106, count=20)

    def test_combined_options(self, skewed_dataset, oracle):
        index = OrderedInvertedFile(
            skewed_dataset,
            compress=False,
            use_metadata=False,
            narrow_candidate_range=False,
            block_capacity=4,
        )
        assert_index_matches_oracle(index, oracle, skewed_dataset, seed=107, count=20)

    def test_fill_factor_changes_page_count(self, larger_dataset):
        dense = OrderedInvertedFile(larger_dataset, fill_factor=1.0)
        sparse = OrderedInvertedFile(larger_dataset, fill_factor=0.5)
        assert sparse.env.page_file.num_pages >= dense.env.page_file.num_pages
