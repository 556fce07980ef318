"""Property-based tests: every index must agree with the brute-force oracle.

These are the strongest correctness guarantees in the suite: hypothesis
generates arbitrary small datasets (skewed towards few items so containment
relations actually occur) and arbitrary query sets, and every access method —
the OIF in several configurations, the classic IF, the unordered B-tree and
the signature file — must return exactly the oracle's answer for all three
predicates.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import (
    InvertedFile,
    NaiveScanIndex,
    SignatureFile,
    UnorderedBTreeInvertedFile,
)
from repro.core import Dataset, OrderedInvertedFile
from repro.core.ordering import order_dataset
from repro.core.query.expr import Equality, Subset, Superset

ITEMS = list("abcdefghij")

transactions_strategy = st.lists(
    st.sets(st.sampled_from(ITEMS), min_size=1, max_size=5),
    min_size=1,
    max_size=40,
)
query_strategy = st.sets(st.sampled_from(ITEMS + ["zz"]), min_size=1, max_size=4)

relaxed = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def build_all_indexes(dataset: Dataset):
    return [
        OrderedInvertedFile(dataset, block_capacity=3),
        OrderedInvertedFile(dataset, use_metadata=False, block_capacity=3),
        OrderedInvertedFile(dataset, compress=False),
        InvertedFile(dataset),
        UnorderedBTreeInvertedFile(dataset, block_capacity=3),
        SignatureFile(dataset, signature_bits=32, bits_per_item=3),
    ]


class TestAllIndexesMatchOracle:
    @relaxed
    @given(transactions_strategy, st.lists(query_strategy, min_size=1, max_size=5))
    def test_subset_queries(self, transactions, queries):
        dataset = Dataset.from_transactions(transactions)
        oracle = NaiveScanIndex(dataset)
        indexes = build_all_indexes(dataset)
        for query in queries:
            expected = oracle.evaluate(Subset(query))
            for index in indexes:
                assert index.evaluate(Subset(query)) == expected, (index.name, query)

    @relaxed
    @given(transactions_strategy, st.lists(query_strategy, min_size=1, max_size=5))
    def test_equality_queries(self, transactions, queries):
        dataset = Dataset.from_transactions(transactions)
        oracle = NaiveScanIndex(dataset)
        indexes = build_all_indexes(dataset)
        for query in queries:
            expected = oracle.evaluate(Equality(query))
            for index in indexes:
                assert index.evaluate(Equality(query)) == expected, (index.name, query)

    @relaxed
    @given(transactions_strategy, st.lists(query_strategy, min_size=1, max_size=5))
    def test_superset_queries(self, transactions, queries):
        dataset = Dataset.from_transactions(transactions)
        oracle = NaiveScanIndex(dataset)
        indexes = build_all_indexes(dataset)
        for query in queries:
            expected = oracle.evaluate(Superset(query))
            for index in indexes:
                assert index.evaluate(Superset(query)) == expected, (index.name, query)


class TestStructuralInvariants:
    @relaxed
    @given(transactions_strategy)
    def test_metadata_regions_partition_id_space(self, transactions):
        dataset = Dataset.from_transactions(transactions)
        ordered = order_dataset(dataset)
        ordered.metadata.validate_partition(len(dataset))

    @relaxed
    @given(transactions_strategy)
    def test_reordering_is_a_bijection_preserving_set_values(self, transactions):
        dataset = Dataset.from_transactions(transactions)
        ordered = order_dataset(dataset)
        seen_old_ids = set()
        for internal_id in range(1, ordered.num_records + 1):
            original = ordered.original_id(internal_id)
            seen_old_ids.add(original)
            record = dataset.get(original)
            assert ordered.length_of(internal_id) == record.length
        assert seen_old_ids == set(dataset.record_ids)

    @relaxed
    @given(transactions_strategy)
    def test_oif_btree_invariants(self, transactions):
        dataset = Dataset.from_transactions(transactions)
        oif = OrderedInvertedFile(dataset, block_capacity=2)
        oif._table.btree.check_invariants()

    @relaxed
    @given(transactions_strategy)
    def test_queries_for_every_existing_record_find_it(self, transactions):
        dataset = Dataset.from_transactions(transactions)
        oif = OrderedInvertedFile(dataset)
        for record in dataset:
            assert record.record_id in oif.evaluate(Subset(record.items))
            assert record.record_id in oif.evaluate(Equality(record.items))
            assert record.record_id in oif.evaluate(Superset(record.items))

    @relaxed
    @given(transactions_strategy, query_strategy)
    def test_predicate_relationships(self, transactions, query):
        # equality answers are a subset of both subset and superset answers.
        dataset = Dataset.from_transactions(transactions)
        oif = OrderedInvertedFile(dataset)
        equality = set(oif.evaluate(Equality(query)))
        assert equality <= set(oif.evaluate(Subset(query)))
        assert equality <= set(oif.evaluate(Superset(query)))
