"""Tests for the shared index interface (QueryType, QueryResult, dispatch)."""

from __future__ import annotations

import pytest

from repro.core.interfaces import QueryResult, QueryType
from repro.core.query.expr import Equality, Subset, Superset, leaf_for
from repro.errors import QueryError


class TestQueryType:
    def test_parse_strings(self):
        assert QueryType.parse("subset") is QueryType.SUBSET
        assert QueryType.parse("EQUALITY") is QueryType.EQUALITY
        assert QueryType.parse("Superset") is QueryType.SUPERSET

    def test_parse_enum_passthrough(self):
        assert QueryType.parse(QueryType.SUBSET) is QueryType.SUBSET

    def test_parse_unknown_raises(self):
        with pytest.raises(QueryError):
            QueryType.parse("between")

    def test_three_predicates_exist(self):
        assert {qt.value for qt in QueryType} == {"subset", "equality", "superset"}


class TestDispatch:
    def test_query_dispatch_matches_direct_calls(self, paper_oif):
        items = {"a", "d"}
        for name, leaf_type in (("subset", Subset), ("equality", Equality), ("superset", Superset)):
            leaf = QueryType.parse(name).leaf(items)
            assert leaf == leaf_type(items)
            assert paper_oif.evaluate(leaf) == paper_oif.evaluate(leaf_type(items))

    def test_query_dispatch_with_enum(self, paper_oif):
        leaf = QueryType.parse(QueryType.SUBSET).leaf({"a"})
        assert paper_oif.evaluate(leaf) == paper_oif.evaluate(Subset({"a"}))


class TestMeasuredQuery:
    def test_measured_query_returns_costs(self, paper_oif):
        paper_oif.drop_cache()
        result = paper_oif.measured_execute(leaf_for("subset", {"a", "d"}))
        assert isinstance(result, QueryResult)
        assert result.record_ids == (101, 104, 114)
        assert result.cardinality == 3
        assert result.query_type is QueryType.SUBSET
        assert result.page_accesses >= 0
        assert result.page_accesses == result.random_reads + result.sequential_reads
        assert result.cpu_time_ms >= 0
        assert result.total_time_ms == pytest.approx(result.io_time_ms + result.cpu_time_ms)

    def test_cold_query_costs_more_than_warm(self, skewed_oif):
        skewed_oif.drop_cache()
        cold = skewed_oif.measured_execute(leaf_for("subset", {skewed_oif.order.item_at(1)}))
        warm = skewed_oif.measured_execute(leaf_for("subset", {skewed_oif.order.item_at(1)}))
        assert warm.page_accesses <= cold.page_accesses

    def test_io_time_reflects_disk_model(self, skewed_oif):
        skewed_oif.drop_cache()
        result = skewed_oif.measured_execute(leaf_for("subset", {skewed_oif.order.item_at(2)}))
        model = skewed_oif.stats.disk_model
        expected = model.io_time_ms(result.random_reads, result.sequential_reads)
        assert result.io_time_ms == pytest.approx(expected)

    def test_index_size_property(self, skewed_oif):
        assert skewed_oif.index_size_bytes == skewed_oif.env.size_bytes
