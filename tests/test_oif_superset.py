"""Tests for superset query evaluation on the OIF (Algorithm 2)."""

from __future__ import annotations

import itertools
import random

from repro.core import Dataset, OrderedInvertedFile
from repro.core.query.expr import Superset


class TestPaperExamples:
    def test_superset_a_c_returns_106_113(self, paper_oif):
        # Section 2's running example: qs = {a, c} -> {106, 113}.
        assert paper_oif.evaluate(Superset({"a", "c"})) == [106, 113]

    def test_superset_a_c_f_from_figure6(self, paper_oif, paper_oracle):
        leaf = Superset({"a", "c", "f"})
        assert paper_oif.evaluate(leaf) == paper_oracle.evaluate(leaf)

    def test_single_item_query_returns_singleton_records(self, paper_oif):
        assert paper_oif.evaluate(Superset({"a"})) == [113]
        assert paper_oif.evaluate(Superset({"d"})) == []

    def test_whole_vocabulary_returns_everything(self, paper_oif, paper_dataset):
        assert paper_oif.evaluate(Superset(set("abcdefghij"))) == sorted(paper_dataset.record_ids)

    def test_all_pairs_match_oracle(self, paper_oif, paper_oracle):
        for pair in itertools.combinations("abcdefghij", 2):
            leaf = Superset(set(pair))
            assert paper_oif.evaluate(leaf) == paper_oracle.evaluate(leaf), pair

    def test_all_triples_match_oracle(self, paper_oif, paper_oracle):
        for triple in itertools.combinations("abcdefghij", 3):
            leaf = Superset(set(triple))
            assert paper_oif.evaluate(leaf) == paper_oracle.evaluate(leaf), triple

    def test_unknown_items_are_ignored(self, paper_oif, paper_oracle):
        # A record can never contain an item outside the vocabulary, so adding
        # unknown items to the query cannot remove answers.
        expected = paper_oracle.evaluate(Superset({"a", "c"}))
        assert paper_oif.evaluate(Superset({"a", "c", "zzz"})) == expected

    def test_query_of_only_unknown_items(self, paper_oif):
        assert paper_oif.evaluate(Superset({"xx", "yy"})) == []


class TestAgainstOracle:
    def test_queries_built_from_records(self, skewed_oif, skewed_oracle, skewed_dataset):
        rng = random.Random(7)
        vocabulary = sorted(skewed_dataset.vocabulary, key=str)
        for record in list(skewed_dataset)[::11]:
            query = set(record.items)
            # Pad with extra items so |qs| exceeds the record length.
            while len(query) < min(len(vocabulary), record.length + 2):
                query.add(rng.choice(vocabulary))
            assert skewed_oif.evaluate(Superset(query)) == skewed_oracle.evaluate(Superset(query))

    def test_random_item_combinations(self, skewed_oif, skewed_oracle, skewed_dataset):
        rng = random.Random(13)
        vocabulary = sorted(skewed_dataset.vocabulary, key=str)
        for _ in range(40):
            query = set(rng.sample(vocabulary, rng.randint(1, 6)))
            leaf = Superset(query)
            assert skewed_oif.evaluate(leaf) == skewed_oracle.evaluate(leaf), query

    def test_multiblock_lists(self, larger_dataset):
        from repro.baselines import NaiveScanIndex

        oif = OrderedInvertedFile(larger_dataset, block_capacity=16)
        oracle = NaiveScanIndex(larger_dataset)
        rng = random.Random(3)
        vocabulary = sorted(larger_dataset.vocabulary, key=str)
        for _ in range(25):
            query = set(rng.sample(vocabulary, rng.randint(2, 8)))
            assert oif.evaluate(Superset(query)) == oracle.evaluate(Superset(query)), query

    def test_duplicate_records_counted_once_each(self):
        dataset = Dataset.from_transactions([{"x"}, {"x"}, {"x", "y"}, {"y", "z"}])
        oif = OrderedInvertedFile(dataset)
        assert oif.evaluate(Superset({"x", "y"})) == [1, 2, 3]


class TestMetadataInteraction:
    def test_single_item_records_come_from_metadata(self, skewed_oif, skewed_oracle):
        # Query = one item: the only possible answers are the records equal to
        # {item}, which live exclusively in the metadata singleton region.
        for rank in range(min(5, skewed_oif.domain_size)):
            item = skewed_oif.order.item_at(rank)
            assert skewed_oif.evaluate(Superset({item})) == skewed_oracle.evaluate(Superset({item}))

    def test_no_metadata_variant_matches(self, skewed_oif_no_metadata, skewed_oracle, skewed_dataset):
        rng = random.Random(19)
        vocabulary = sorted(skewed_dataset.vocabulary, key=str)
        for _ in range(30):
            query = set(rng.sample(vocabulary, rng.randint(1, 6)))
            leaf = Superset(query)
            assert skewed_oif_no_metadata.evaluate(leaf) == skewed_oracle.evaluate(leaf), query

    def test_results_have_no_duplicates(self, skewed_oif, skewed_dataset):
        rng = random.Random(29)
        vocabulary = sorted(skewed_dataset.vocabulary, key=str)
        for _ in range(20):
            query = set(rng.sample(vocabulary, rng.randint(2, 8)))
            result = skewed_oif.evaluate(Superset(query))
            assert len(result) == len(set(result))
