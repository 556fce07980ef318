"""Tests for the brute-force oracle itself (it must be trivially correct)."""

from __future__ import annotations

import pytest

from repro.baselines import NaiveScanIndex
from repro.core import Dataset
from repro.core.query.expr import Equality, Subset, Superset, leaf_for
from repro.errors import QueryError


@pytest.fixture()
def tiny_index():
    dataset = Dataset.from_transactions([{"a", "b"}, {"a"}, {"b", "c"}, {"a", "b", "c"}])
    return NaiveScanIndex(dataset)


class TestNaiveScan:
    def test_subset(self, tiny_index):
        assert tiny_index.evaluate(Subset({"a"})) == [1, 2, 4]
        assert tiny_index.evaluate(Subset({"a", "b"})) == [1, 4]
        assert tiny_index.evaluate(Subset({"a", "b", "c"})) == [4]
        assert tiny_index.evaluate(Subset({"z"})) == []

    def test_equality(self, tiny_index):
        assert tiny_index.evaluate(Equality({"a", "b"})) == [1]
        assert tiny_index.evaluate(Equality({"a"})) == [2]
        assert tiny_index.evaluate(Equality({"c"})) == []

    def test_superset(self, tiny_index):
        assert tiny_index.evaluate(Superset({"a", "b"})) == [1, 2]
        assert tiny_index.evaluate(Superset({"a", "b", "c"})) == [1, 2, 3, 4]
        assert tiny_index.evaluate(Superset({"c"})) == []

    def test_empty_query_rejected(self, tiny_index):
        with pytest.raises(QueryError):
            tiny_index.evaluate(Subset(set()))

    def test_dispatch(self, tiny_index):
        assert tiny_index.evaluate(leaf_for("subset", {"a"})) == tiny_index.evaluate(Subset({"a"}))

    def test_results_are_sorted(self, tiny_index):
        for query_type in ("subset", "equality", "superset"):
            result = tiny_index.evaluate(leaf_for(query_type, {"a", "b"}))
            assert result == sorted(result)
