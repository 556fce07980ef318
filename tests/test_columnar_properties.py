"""Property suite for the columnar posting codecs (the hot-path rewrite).

Four guarantees, each checked with hypothesis over adversarial inputs:

* **roundtrip** — ``encode_columns`` ∘ ``decode_columns`` is the identity on
  valid (ids, lengths) columns, compressed and uncompressed;
* **scalar equivalence** — the batch decoder produces exactly the postings
  the scalar reference decoder produces, and the batch encoder produces the
  exact bytes the scalar encoder produces (byte-for-byte, so on-disk layouts
  and space numbers cannot drift);
* **d-gap restart at block boundaries** — every OIF block encodes
  independently (its first id is absolute), so decoding any block split of a
  posting stream reassembles the stream;
* **query equivalence** — on random datasets, every index answers all three
  predicates identically to the naive full-scan oracle, which is what ties
  the array-native merge joins back to the paper's semantics.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import InvertedFile, NaiveScanIndex, UnorderedBTreeInvertedFile
from repro.compression.postings import (
    Posting,
    PostingBlockCodec,
    PostingListCodec,
    PostingColumns,
    decode_columns,
    encode_columns,
)
from repro.core import Dataset, OrderedInvertedFile
from repro.core.query.expr import leaf_for

# Strictly increasing ids with arbitrary gap widths (1-byte to multi-byte
# varints) paired with lengths spanning the single/multi-byte boundary.
posting_columns = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=2**40),
        st.integers(min_value=0, max_value=300),
    ),
    max_size=120,
).map(
    lambda pairs: (
        [sum(gap for gap, _ in pairs[: index + 1]) for index in range(len(pairs))],
        [length for _, length in pairs],
    )
)


class TestRoundtrip:
    @given(posting_columns, st.booleans())
    def test_encode_decode_roundtrip(self, columns, compress):
        ids, lengths = columns
        encoded = encode_columns(ids, lengths, compress=compress)
        decoded = decode_columns(encoded, compress=compress)
        assert list(decoded.ids) == ids
        assert list(decoded.lengths) == lengths

    @given(posting_columns)
    def test_columns_are_a_lazy_posting_view(self, columns):
        ids, lengths = columns
        decoded = decode_columns(encode_columns(ids, lengths))
        assert len(decoded) == len(ids)
        assert list(decoded) == [Posting(i, n) for i, n in zip(ids, lengths)]
        assert decoded.postings() == PostingColumns.from_postings(decoded.postings()).postings()
        if ids:
            assert decoded[0] == Posting(ids[0], lengths[0])


class TestScalarEquivalence:
    @given(posting_columns, st.booleans())
    def test_batch_decode_equals_scalar_decode(self, columns, compress):
        ids, lengths = columns
        codec = PostingListCodec(compress=compress)
        postings = [Posting(i, n) for i, n in zip(ids, lengths)]
        encoded = codec.encode(postings)
        assert codec.decode_columns(encoded).postings() == codec.decode(encoded)

    @given(posting_columns, st.booleans())
    def test_batch_encode_is_byte_identical_to_scalar_encode(self, columns, compress):
        ids, lengths = columns
        codec = PostingListCodec(compress=compress)
        postings = [Posting(i, n) for i, n in zip(ids, lengths)]
        assert codec.encode_columns_form(ids, lengths) == codec.encode(postings)

    @given(posting_columns, st.integers(min_value=0, max_value=50))
    def test_continuation_encoding_matches_scalar(self, columns, anchor):
        ids, lengths = columns
        shifted = [record_id + anchor for record_id in ids]
        codec = PostingListCodec(compress=True)
        postings = [Posting(i, n) for i, n in zip(shifted, lengths)]
        if not postings:
            return
        assert codec.encode_columns_form(shifted, lengths, previous_id=anchor) == (
            codec.encode_continuation(postings, previous_last_id=anchor)
        )


class TestBlockBoundaryRestart:
    @given(posting_columns, st.integers(min_value=1, max_value=16))
    def test_each_block_restarts_its_gap_chain(self, columns, block_size):
        """Splitting a stream into blocks and decoding each independently
        reassembles the stream — the d-gap chain restarts per block."""
        ids, lengths = columns
        codec = PostingBlockCodec(compress=True)
        reassembled_ids: list[int] = []
        reassembled_lengths: list[int] = []
        for start in range(0, len(ids), block_size):
            block_ids = ids[start : start + block_size]
            block_lengths = lengths[start : start + block_size]
            encoded = codec.encode_columns_form(block_ids, block_lengths)
            decoded = codec.decode_columns(encoded)
            # The block's first id is stored absolute, not as a gap from the
            # previous block.
            assert list(decoded.ids) == block_ids
            reassembled_ids.extend(decoded.ids)
            reassembled_lengths.extend(decoded.lengths)
        assert reassembled_ids == ids
        assert reassembled_lengths == lengths


transactions = st.lists(
    st.sets(
        st.sampled_from([f"i{n}" for n in range(14)]), min_size=1, max_size=6
    ),
    min_size=1,
    max_size=40,
)
query_sets = st.sets(
    st.sampled_from([f"i{n}" for n in range(14)]), min_size=1, max_size=4
)


class TestQueryEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(transactions, st.lists(query_sets, min_size=1, max_size=5))
    def test_all_indexes_match_the_naive_oracle(self, raw_transactions, queries):
        dataset = Dataset.from_transactions(raw_transactions)
        oracle = NaiveScanIndex(dataset)
        indexes = [
            OrderedInvertedFile(dataset, block_capacity=4),
            OrderedInvertedFile(dataset, use_metadata=False, block_capacity=4),
            OrderedInvertedFile(dataset, compress=False, block_capacity=4),
            InvertedFile(dataset),
            UnorderedBTreeInvertedFile(dataset, block_capacity=4),
        ]
        for query in queries:
            for predicate in ("subset", "equality", "superset"):
                expected = oracle.evaluate(leaf_for(predicate, query))
                for index in indexes:
                    assert index.evaluate(leaf_for(predicate, query)) == expected, (
                        f"{index.name} diverged on {predicate} {sorted(query)}"
                    )
