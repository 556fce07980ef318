"""Unit and property tests for sequence forms and their order-preserving encoding."""

from __future__ import annotations

import re
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.items import ItemOrder, Vocabulary
from repro.core.sequence import (
    MAX_RANK,
    compare,
    decode_rank,
    decode_tag,
    encode_rank,
    encode_tag,
    sequence_form,
    sequence_form_from_ranks,
)
from repro.errors import IndexBuildError


class TestSequenceForm:
    def test_sequence_form_sorts_by_rank(self):
        order = Vocabulary({"a": 10, "b": 5, "c": 1}).frequency_order()
        assert sequence_form({"c", "a"}, order) == (0, 2)
        assert sequence_form({"b"}, order) == (1,)

    def test_paper_figure3_ordering(self, paper_dataset):
        # Record {g, b, a, d} of Figure 1 has sequence form a, b, d, g
        # under the frequency order (a < b < c < d < ... ).
        order = paper_dataset.vocabulary.frequency_order()
        ranks = sequence_form({"g", "b", "a", "d"}, order)
        assert [order.item_at(rank) for rank in ranks] == ["a", "b", "d", "g"]

    def test_sequence_form_from_ranks_deduplicates(self):
        assert sequence_form_from_ranks([3, 1, 3, 2]) == (1, 2, 3)

    def test_compare(self):
        assert compare((0, 1), (0, 1)) == 0
        assert compare((0,), (0, 1)) < 0  # prefix comes first
        assert compare((1,), (0, 5)) > 0


class TestTagEncoding:
    def test_round_trip(self):
        for ranks in [(), (0,), (0, 3, 9), (5, 100, 10_000)]:
            encoded = encode_tag(ranks)
            decoded, offset = decode_tag(encoded)
            assert decoded == ranks
            assert offset == len(encoded)

    def test_prefix_sorts_before_extension(self):
        assert encode_tag((0, 1)) < encode_tag((0, 1, 2))

    def test_empty_tag_sorts_first(self):
        assert encode_tag(()) < encode_tag((0,))

    def test_byte_order_matches_tuple_order_examples(self):
        tags = [(), (0,), (0, 5), (0, 6), (1,), (1, 2, 3), (2,)]
        encoded = [encode_tag(tag) for tag in tags]
        assert encoded == sorted(encoded)

    def test_non_increasing_ranks_rejected(self):
        with pytest.raises(IndexBuildError):
            encode_tag((3, 3))
        with pytest.raises(IndexBuildError):
            encode_tag((5, 2))

    def test_negative_rank_rejected(self):
        with pytest.raises(IndexBuildError):
            encode_tag((-1,))

    def test_truncated_tag_rejected(self):
        encoded = encode_tag((1, 2))
        with pytest.raises(IndexBuildError):
            decode_tag(encoded[:-5])

    @given(
        st.lists(st.integers(min_value=0, max_value=100_000), unique=True, max_size=20),
        st.lists(st.integers(min_value=0, max_value=100_000), unique=True, max_size=20),
    )
    def test_byte_order_equals_tuple_order(self, left, right):
        left = tuple(sorted(left))
        right = tuple(sorted(right))
        byte_comparison = (encode_tag(left) > encode_tag(right)) - (
            encode_tag(left) < encode_tag(right)
        )
        tuple_comparison = (left > right) - (left < right)
        assert byte_comparison == tuple_comparison


def _reference_encode_tag(ranks) -> bytes:
    """The rank-by-rank encoding: ``rank + 1`` big-endian, then a zero word."""
    return b"".join(struct.pack(">I", rank + 1) for rank in ranks) + bytes(4)


class TestTagEncodingMatchesReference:
    @given(st.lists(st.integers(min_value=0, max_value=MAX_RANK), unique=True, max_size=60))
    def test_random_increasing_tuples(self, ranks):
        ranks = tuple(sorted(ranks))
        assert encode_tag(ranks) == _reference_encode_tag(ranks)
        assert encode_tag(list(ranks)) == _reference_encode_tag(ranks)

    @pytest.mark.parametrize("length", [0, 1, 2, 11, 12, 13, 257, 4000])
    def test_range_prefixes(self, length):
        # Subset seeks encode lower bounds of the form tuple(range(n)).
        ranks = tuple(range(length))
        assert encode_tag(ranks) == _reference_encode_tag(ranks)
        assert encode_tag(range(length)) == _reference_encode_tag(ranks)

    def test_empty_and_extreme_ranks(self):
        assert encode_tag(()) == bytes(4)
        assert encode_tag((0, MAX_RANK)) == _reference_encode_tag((0, MAX_RANK))

    @pytest.mark.parametrize(
        "ranks, message",
        [
            ((-1,), "rank -1 cannot be encoded in a 4-byte tag element"),
            ((3, -1), "rank -1 cannot be encoded in a 4-byte tag element"),
            ((4, MAX_RANK + 1), f"rank {MAX_RANK + 1} cannot be encoded in a 4-byte tag element"),
            ((2, 5, 5), "tag ranks must be strictly increasing, got 5 then 5"),
            ((2, 7, 4, 9), "tag ranks must be strictly increasing, got 7 then 4"),
            ((9, 4, -2), "tag ranks must be strictly increasing, got 9 then 4"),
            # Long enough for the one-call path, which must name the same rank.
            ((-1, *range(1, 40)), "rank -1 cannot be encoded in a 4-byte tag element"),
            (
                (*range(40), MAX_RANK + 1),
                f"rank {MAX_RANK + 1} cannot be encoded in a 4-byte tag element",
            ),
            (
                (*range(20), 19, *range(20, 40)),
                "tag ranks must be strictly increasing, got 19 then 19",
            ),
            (
                (*range(20), 7, *range(50, 70)),
                "tag ranks must be strictly increasing, got 19 then 7",
            ),
        ],
    )
    def test_invalid_ranks_raise_the_first_violation(self, ranks, message):
        with pytest.raises(IndexBuildError, match=f"^{re.escape(message)}$"):
            encode_tag(ranks)


class TestRankEncoding:
    def test_round_trip(self):
        for value in [0, 1, 255, 2**16, 2**32 - 1]:
            assert decode_rank(encode_rank(value)) == value

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexBuildError):
            encode_rank(2**32)
        with pytest.raises(IndexBuildError):
            encode_rank(-1)

    def test_byte_order_matches_numeric_order(self):
        values = [0, 1, 2, 255, 256, 65535, 2**20]
        encoded = [encode_rank(value) for value in values]
        assert encoded == sorted(encoded)


class TestLexicographicOrderOfRecords:
    def test_prefix_property_on_item_order(self):
        order = ItemOrder(list("abcdef"))
        singleton = sequence_form({"a"}, order)
        pair = sequence_form({"a", "b"}, order)
        assert singleton < pair

    def test_frequency_order_drives_comparison(self):
        # c is more frequent than a here, so {c} sorts before {a}.
        order = Vocabulary({"a": 1, "c": 9}).frequency_order()
        assert sequence_form({"c"}, order) < sequence_form({"a"}, order)
