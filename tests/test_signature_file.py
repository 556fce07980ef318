"""Tests for the signature-file extension baseline."""

from __future__ import annotations

import pytest

from repro.baselines import SignatureFile
from repro.core.query.expr import Equality, Subset, Superset, leaf_for
from repro.errors import IndexBuildError, QueryError
from tests.conftest import sample_queries


class TestSignatures:
    def test_record_signature_is_superimposed(self, skewed_sig):
        items = list(skewed_sig.dataset.vocabulary)[:3]
        combined = skewed_sig.record_signature(items)
        for item in items:
            single = skewed_sig.record_signature([item])
            assert combined & single == single

    def test_signature_deterministic(self, skewed_sig):
        items = list(skewed_sig.dataset.vocabulary)[:4]
        assert skewed_sig.record_signature(items) == skewed_sig.record_signature(items)

    def test_unknown_items_do_not_contribute(self, skewed_sig):
        item = next(iter(skewed_sig.dataset.vocabulary))
        assert skewed_sig.record_signature([item, "unknown"]) == skewed_sig.record_signature(
            [item]
        )

    def test_invalid_parameters_rejected(self, skewed_dataset):
        with pytest.raises(IndexBuildError):
            SignatureFile(skewed_dataset, signature_bits=30)
        with pytest.raises(IndexBuildError):
            SignatureFile(skewed_dataset, bits_per_item=0)


class TestCorrectness:
    def test_paper_examples(self, paper_dataset):
        index = SignatureFile(paper_dataset)
        assert index.evaluate(Subset({"a", "d"})) == [101, 104, 114]
        assert index.evaluate(Superset({"a", "c"})) == [106, 113]
        assert index.evaluate(Equality({"a", "c"})) == [106]

    def test_random_queries_match_oracle(self, skewed_sig, skewed_oracle, skewed_dataset):
        for query in sample_queries(skewed_dataset, count=40, max_size=4, seed=81):
            for query_type in ("subset", "equality", "superset"):
                leaf = leaf_for(query_type, query)
                assert skewed_sig.evaluate(leaf) == skewed_oracle.evaluate(leaf)

    def test_narrow_signatures_still_exact(self, skewed_dataset, skewed_oracle):
        # With very few signature bits there are many false positives, but the
        # verification step must keep the answers exact.
        index = SignatureFile(skewed_dataset, signature_bits=16, bits_per_item=2)
        for query in sample_queries(skewed_dataset, count=25, max_size=3, seed=82):
            assert index.evaluate(Subset(query)) == skewed_oracle.evaluate(Subset(query))

    def test_unknown_item_queries(self, skewed_sig):
        assert skewed_sig.evaluate(Subset({"missing"})) == []
        assert skewed_sig.evaluate(Equality({"missing"})) == []

    def test_empty_query_rejected(self, skewed_sig):
        with pytest.raises(QueryError):
            skewed_sig.evaluate(Superset(set()))


class TestCost:
    def test_query_scans_the_whole_signature_file(self, skewed_sig):
        # Unlike the OIF, the signature file always scans every signature page.
        frequent_item = skewed_sig.order.item_at(0)
        rare_item = skewed_sig.order.item_at(len(skewed_sig.order) - 1)
        skewed_sig.drop_cache()
        first = skewed_sig.measured_execute(leaf_for("subset", {frequent_item}))
        skewed_sig.drop_cache()
        second = skewed_sig.measured_execute(leaf_for("subset", {rare_item}))
        assert first.page_accesses >= len(skewed_sig._signature_pages)
        assert second.page_accesses >= len(skewed_sig._signature_pages)
