"""Tests for the batch-update machinery (delta index + merges, Section 4.4)."""

from __future__ import annotations

import random

import pytest

from repro.baselines import NaiveScanIndex
from repro.core import Dataset
from repro.core.query.expr import And, Equality, Not, Subset, Superset, leaf_for
from repro.core.updates import (
    DeltaInvertedFile,
    UpdatableIF,
    UpdatableOIF,
    UpdatableShardedOIF,
)
from repro.core.records import Record
from repro.errors import QueryError
from tests.conftest import make_skewed_transactions


@pytest.fixture()
def base_dataset():
    return Dataset.from_transactions(make_skewed_transactions(300, seed=91))


@pytest.fixture()
def fresh_transactions():
    # Restricted to the head of the vocabulary so every item already exists in
    # the base dataset (the IF's in-place merge requires known items).
    return make_skewed_transactions(60, vocabulary="abcdefgh", seed=92)


class TestDeltaInvertedFile:
    def test_clear(self):
        delta = DeltaInvertedFile()
        delta.add(Record(1, frozenset({"a"})))
        delta.clear()
        assert len(delta) == 0
        assert 1 not in delta
        assert delta.records == []

    def test_records_property_sorted_by_id(self):
        delta = DeltaInvertedFile()
        delta.add(Record(5, frozenset({"a"})))
        delta.add(Record(3, frozenset({"b"})))
        assert [record.record_id for record in delta.records] == [3, 5]


WRAPPERS = [UpdatableOIF, UpdatableIF, UpdatableShardedOIF]


class TestUpdatableIndexes:
    @pytest.mark.parametrize("wrapper_class", WRAPPERS)
    def test_inserted_records_visible_before_flush(self, base_dataset, wrapper_class):
        wrapper = wrapper_class(base_dataset)
        new_ids = wrapper.insert([{"a", "b"}])
        assert wrapper.pending_updates == 1
        result = wrapper.evaluate(Subset({"a", "b"}))
        assert new_ids[0] in result

    @pytest.mark.parametrize("wrapper_class", WRAPPERS)
    def test_flush_preserves_query_answers(self, base_dataset, fresh_transactions, wrapper_class):
        wrapper = wrapper_class(base_dataset)
        wrapper.insert(fresh_transactions)
        leaves = [leaf_for(query_type, {"a", "b"}) for query_type in ("subset", "equality", "superset")]
        answers_before = [wrapper.evaluate(leaf) for leaf in leaves]
        report = wrapper.flush()
        assert wrapper.pending_updates == 0
        assert report.records_merged == len(fresh_transactions)
        assert report.merge_seconds > 0
        assert [wrapper.evaluate(leaf) for leaf in leaves] == answers_before

    @pytest.mark.parametrize("wrapper_class", WRAPPERS)
    def test_flush_result_matches_oracle(self, base_dataset, fresh_transactions, wrapper_class):
        wrapper = wrapper_class(base_dataset)
        wrapper.insert(fresh_transactions)
        wrapper.flush()
        oracle = NaiveScanIndex(wrapper.dataset)
        rng = random.Random(17)
        vocabulary = sorted(wrapper.dataset.vocabulary, key=str)
        for _ in range(25):
            query = set(rng.sample(vocabulary, rng.randint(1, 4)))
            for query_type in ("subset", "equality", "superset"):
                leaf = leaf_for(query_type, query)
                assert wrapper.evaluate(leaf) == oracle.evaluate(leaf)

    @pytest.mark.parametrize("wrapper_class", WRAPPERS)
    def test_interleaved_updates_match_the_live_oracle(self, base_dataset, wrapper_class):
        # Inserts, deletes of a pending record and of a base record, and
        # flushes, checked against a naive scan of the live records before
        # and after each flush.  Fresh records use only known items, which
        # the IF's append merge requires.
        wrapper = wrapper_class(base_dataset)
        rng = random.Random(31)

        def check() -> None:
            live = wrapper.live_dataset()
            oracle = NaiveScanIndex(live)
            records = list(live)
            for _ in range(12):
                record = rng.choice(records)
                probe = set(rng.sample(sorted(record.items, key=str), 1))
                wider = record.items | {rng.choice("abcdefgh")}
                exprs = [
                    Subset(probe),
                    Equality(record.items),
                    Superset(wider),
                    And((Subset(probe), Not(Superset(wider)))),
                ]
                for expr in exprs:
                    assert wrapper.evaluate(expr) == oracle.evaluate(expr), expr
                expected = oracle.evaluate(Subset(probe))[2:7]
                assert wrapper.evaluate(Subset(probe).limit(5, offset=2)) == expected

        for round_seed in range(3):
            new_ids = wrapper.insert(
                make_skewed_transactions(15, vocabulary="abcdefgh", seed=100 + round_seed)
            )
            wrapper.delete([new_ids[0]])
            base_ids = [
                record_id
                for record_id in wrapper.dataset.record_ids
                if record_id not in wrapper._tombstones
            ]
            wrapper.delete([rng.choice(base_ids)])
            assert new_ids[0] not in wrapper.live_dataset().record_ids
            check()
            report = wrapper.flush()
            assert report.records_merged == 14 + 1
            assert wrapper.pending_updates == 0
            check()

    def test_empty_insert_rejected(self, base_dataset):
        wrapper = UpdatableOIF(base_dataset)
        with pytest.raises(QueryError):
            wrapper.insert([set()])

    def test_new_ids_continue_after_existing_ones(self, base_dataset):
        wrapper = UpdatableIF(base_dataset)
        new_ids = wrapper.insert([{"a"}, {"b"}])
        assert new_ids == [len(base_dataset) + 1, len(base_dataset) + 2]

    def test_multiple_flushes(self, base_dataset):
        wrapper = UpdatableIF(base_dataset)
        for seed in (1, 2):
            wrapper.insert(make_skewed_transactions(20, seed=seed))
            wrapper.flush()
        assert len(wrapper.dataset) == len(base_dataset) + 40

    def test_oif_update_report_counts_io(self, base_dataset, fresh_transactions):
        wrapper = UpdatableOIF(base_dataset)
        wrapper.insert(fresh_transactions)
        report = wrapper.flush()
        assert report.page_writes > 0
        assert report.seconds_per_record > 0

    def test_update_cost_shape_oif_slower_than_if(self, base_dataset, fresh_transactions):
        # The paper reports OIF batch updates to be a few times slower than IF
        # batch updates (it must re-sort and rebuild).  At the tiny sizes used
        # in tests we only assert the direction, not the exact factor.
        updatable_if = UpdatableIF(base_dataset)
        updatable_if.insert(fresh_transactions)
        if_report = updatable_if.flush()

        updatable_oif = UpdatableOIF(base_dataset)
        updatable_oif.insert(fresh_transactions)
        oif_report = updatable_oif.flush()

        assert oif_report.merge_seconds > if_report.merge_seconds
