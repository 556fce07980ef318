"""Tests for the query workload generator (the paper's query methodology)."""

from __future__ import annotations

import pytest

from repro.baselines import NaiveScanIndex
from repro.core.interfaces import QueryType
from repro.core.query.expr import Equality, Subset, Superset
from repro.errors import WorkloadError
from repro.workloads import WorkloadGenerator, answer_counts


@pytest.fixture(scope="module")
def generator(skewed_dataset):
    return WorkloadGenerator(skewed_dataset, seed=7)


class TestSingleQueries:
    def test_subset_queries_always_have_answers(self, generator, skewed_oracle):
        for size in (1, 2, 3, 4):
            for _ in range(5):
                query = generator.subset_query(size)
                assert query.size == size
                answers = skewed_oracle.evaluate(Subset(query.items))
                assert query.source_record_id in answers

    def test_equality_queries_match_their_source_record(self, generator, skewed_dataset, skewed_oracle):
        for size in (1, 2, 3, 4):
            query = generator.equality_query(size)
            answers = skewed_oracle.evaluate(Equality(query.items))
            assert query.source_record_id in answers
            assert skewed_dataset.get(query.source_record_id).items == query.items

    def test_equality_falls_back_to_nearest_available_size(self, generator, skewed_dataset):
        huge = max(record.length for record in skewed_dataset) + 5
        query = generator.equality_query(huge)
        assert query.size <= huge

    def test_superset_queries_cover_their_source_record(self, generator, skewed_dataset, skewed_oracle):
        for size in (2, 4, 6):
            query = generator.superset_query(size)
            assert query.size == size
            answers = skewed_oracle.evaluate(Superset(query.items))
            assert query.source_record_id in answers
            assert skewed_dataset.get(query.source_record_id).items <= query.items

    def test_impossible_sizes_rejected(self, generator, skewed_dataset):
        too_big = max(record.length for record in skewed_dataset) + 1
        with pytest.raises(WorkloadError):
            generator.subset_query(too_big)

    def test_query_dispatch(self, generator):
        assert generator.query("subset", 2).query_type is QueryType.SUBSET
        assert generator.query(QueryType.SUPERSET, 3).query_type is QueryType.SUPERSET


class TestWorkloads:
    def test_workload_size_and_grouping(self, generator):
        workload = generator.workload("subset", sizes=[2, 3], queries_per_size=4)
        assert len(workload) == 8
        grouped = workload.by_size()
        assert set(grouped) == {2, 3}
        assert all(len(queries) == 4 for queries in grouped.values())

    def test_workload_is_reproducible(self, skewed_dataset):
        first = WorkloadGenerator(skewed_dataset, seed=99).workload("subset", [2, 3], 5)
        second = WorkloadGenerator(skewed_dataset, seed=99).workload("subset", [2, 3], 5)
        assert [q.items for q in first] == [q.items for q in second]

    def test_different_seeds_give_different_workloads(self, skewed_dataset):
        first = WorkloadGenerator(skewed_dataset, seed=1).workload("subset", [3], 10)
        second = WorkloadGenerator(skewed_dataset, seed=2).workload("subset", [3], 10)
        assert [q.items for q in first] != [q.items for q in second]

    def test_mixed_workload_covers_all_predicates(self, generator):
        workloads = generator.mixed_workload(sizes=[2], queries_per_size=2)
        assert set(workloads) == set(QueryType)

    def test_invalid_parameters_rejected(self, generator):
        with pytest.raises(WorkloadError):
            generator.workload("subset", [2], queries_per_size=0)
        with pytest.raises(WorkloadError):
            generator.workload("subset", [0], queries_per_size=1)

    def test_every_generated_query_has_an_answer(self, generator, skewed_dataset):
        # The paper evaluates only queries with non-empty answers; the
        # generator must guarantee that by construction.
        oracle = NaiveScanIndex(skewed_dataset)
        for query_type in QueryType:
            workload = generator.workload(query_type, sizes=[2, 3], queries_per_size=5)
            counts = answer_counts(workload, oracle)
            assert all(count >= 1 for count in counts)
