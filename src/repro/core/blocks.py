"""Posting blocks and their B-tree keys.

The OIF splits every inverted list into blocks.  Each block becomes one entry
in a single shared B-tree; its key is the triple

    (item, tag, last record id)

where the *tag* is the sequence form of the last record referenced in the
block (Section 3, "Tagging for inverted lists").  The item acts as a prefix so
that all blocks of one list are consecutive B-tree entries; the tag drives the
Range-of-Interest pruning; the record id makes the key unique and supports the
candidate-range narrowing during merge joins.

Key encoding: ``encode_rank(item_rank) + encode_tag(tag) + encode_rank(last_id)``.
All three components are order-preserving under plain byte comparison (see
:mod:`repro.core.sequence`), so byte order of the keys equals the logical
block order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

from repro.compression import vbyte
from repro.compression.postings import Posting, PostingBlockCodec
from repro.core.sequence import (
    SequenceForm,
    decode_rank,
    decode_tag,
    encode_rank,
    encode_tag,
)
from repro.errors import IndexBuildError


@dataclass(frozen=True)
class BlockKey:
    """Decoded form of an OIF B-tree key."""

    item_rank: int
    tag: SequenceForm
    last_id: int

    def encode(self) -> bytes:
        """Serialize to the order-preserving byte representation."""
        return encode_rank(self.item_rank) + encode_tag(self.tag) + encode_rank(self.last_id)

    @classmethod
    def decode(cls, data: bytes) -> "BlockKey":
        """Parse a key produced by :meth:`encode`.

        The key layout pins the tag between the two fixed-width ranks, so the
        whole tag (including its terminator) is ``data[4:-4]`` and parses
        with one bulk ``struct.unpack`` instead of one call per tag element —
        this runs once per scanned block key, squarely on the query hot path.
        """
        tag_bytes = data[4:-4]
        count = len(tag_bytes) >> 2
        values = (
            struct.unpack(f">{count}I", tag_bytes)
            if len(tag_bytes) == count << 2 and count
            else (1,)
        )
        if values[-1] != 0:
            # Not a self-terminated tag (foreign or corrupt key): fall back to
            # the element-wise parser, which raises the precise error.
            item_rank = decode_rank(data, 0)
            tag, offset = decode_tag(data, 4)
            return cls(item_rank=item_rank, tag=tag, last_id=decode_rank(data, offset))
        tag = tuple(value - 1 for value in values[:-1])
        return cls(
            item_rank=decode_rank(data, 0), tag=tag, last_id=decode_rank(data, len(data) - 4)
        )


def item_prefix(item_rank: int) -> bytes:
    """Key prefix shared by every block of one item's inverted list."""
    return encode_rank(item_rank)


def search_key(item_rank: int, tag: SequenceForm, last_id: int = 0) -> bytes:
    """Build a seek key for "first block of ``item_rank`` with tag >= ``tag``".

    Using ``last_id = 0`` guarantees the key sorts before any real block with
    the same tag (real internal ids start at 1).
    """
    return encode_rank(item_rank) + encode_tag(tag) + encode_rank(last_id)


@dataclass
class PostingBlock:
    """One block of an inverted list: its postings plus the derived key parts."""

    item_rank: int
    postings: list[Posting]
    tag: SequenceForm

    def __post_init__(self) -> None:
        if not self.postings:
            raise IndexBuildError("a posting block cannot be empty")

    @property
    def last_id(self) -> int:
        """Internal id of the last record referenced in the block."""
        return self.postings[-1].record_id

    @property
    def first_id(self) -> int:
        """Internal id of the first record referenced in the block."""
        return self.postings[0].record_id

    def key(self) -> BlockKey:
        """The B-tree key of this block."""
        return BlockKey(item_rank=self.item_rank, tag=self.tag, last_id=self.last_id)


class BlockWriter:
    """Splits one item's posting stream into size-bounded blocks.

    Blocks close when they reach ``block_capacity`` postings or when their
    encoded size would exceed ``max_block_bytes`` — whichever comes first.  The
    byte bound keeps every block (plus its key) within one B-tree page.
    """

    def __init__(
        self,
        item_rank: int,
        codec: PostingBlockCodec,
        tag_for: "TagLookup",
        block_capacity: int = 128,
        max_block_bytes: int = 1024,
        tag_prefix: int | None = None,
    ) -> None:
        if block_capacity <= 0:
            raise IndexBuildError(f"block capacity must be positive, got {block_capacity}")
        if max_block_bytes <= 0:
            raise IndexBuildError(f"max block bytes must be positive, got {max_block_bytes}")
        self.item_rank = item_rank
        self.codec = codec
        self.tag_for = tag_for
        self.block_capacity = block_capacity
        self.max_block_bytes = max_block_bytes
        self.tag_prefix = tag_prefix
        self._pending: list[Posting] = []
        self._pending_bytes = 0
        self._previous_id = 0

    def _posting_size(self, posting: Posting) -> int:
        """Incremental encoded-size estimate of appending ``posting``.

        Matches the codec's layout (d-gap + length, both v-byte); the block's
        leading count varint is covered by a small constant margin.
        """
        if self.codec.compress and self._pending:
            id_bytes = vbyte.encoded_size(posting.record_id - self._previous_id)
        else:
            id_bytes = vbyte.encoded_size(posting.record_id)
        return id_bytes + vbyte.encoded_size(posting.length)

    def add(self, posting: Posting) -> PostingBlock | None:
        """Append a posting; returns a finished block when one closes."""
        extra = self._posting_size(posting)
        if self._pending and self._pending_bytes + extra + 4 > self.max_block_bytes:
            # The newest posting would overflow the byte budget: emit everything
            # before it and start the next block with it.
            block = self._close()
            self._pending.append(posting)
            self._pending_bytes = self._posting_size(posting)
            self._previous_id = posting.record_id
            return block
        self._pending.append(posting)
        self._pending_bytes += extra
        self._previous_id = posting.record_id
        if len(self._pending) >= self.block_capacity:
            return self._close()
        return None

    def finish(self) -> PostingBlock | None:
        """Close and return the trailing partial block, if any."""
        if not self._pending:
            return None
        return self._close()

    def _close(self) -> PostingBlock:
        postings = self._pending
        self._pending = []
        self._pending_bytes = 0
        self._previous_id = 0
        tag = self.tag_for(postings[-1].record_id)
        if self.tag_prefix is not None:
            tag = tag[: self.tag_prefix]
        return PostingBlock(item_rank=self.item_rank, postings=postings, tag=tag)


class TagLookup:
    """Callable returning the sequence form (tag) for an internal record id."""

    def __init__(self, sequence_forms: Sequence[SequenceForm]) -> None:
        self._sequence_forms = sequence_forms

    def __call__(self, internal_id: int) -> SequenceForm:
        return self._sequence_forms[internal_id - 1]


def encode_block(block: PostingBlock, codec: PostingBlockCodec) -> tuple[bytes, bytes]:
    """Return the ``(key, value)`` pair to store for ``block``."""
    return block.key().encode(), codec.encode(block.postings)


def decode_block_entry(
    key: bytes, value: bytes, codec: PostingBlockCodec
) -> tuple[BlockKey, list[Posting]]:
    """Inverse of :func:`encode_block` for entries read back from the B-tree."""
    return BlockKey.decode(key), codec.decode_columns(value).postings()

