"""Sequence forms and their order-preserving byte encoding.

Definition 1 of the paper: the *sequence form* ``sf(v)`` of a set-value ``v``
lists its items in increasing ``<_D`` order.  Set-values are then compared
lexicographically on their sequence forms; the empty set is smallest and a
proper prefix precedes any of its extensions.

In this library a sequence form is simply a tuple of item **ranks** sorted in
ascending order, so Python's native tuple comparison *is* the lexicographic
order of Definition 1.  What this module adds is an **order-preserving byte
encoding** used for B-tree keys: plain ``bytes`` comparison of the encodings
must agree with tuple comparison of the sequence forms, including the
prefix-comes-first rule.

Encoding
--------
Each rank ``r`` is written as the 4-byte big-endian value ``r + 1`` (so the
value 0 never appears inside a tag) and the tag ends with a 4-byte zero
terminator.  Because the terminator is smaller than any encoded rank, a
proper prefix sorts before its extensions, exactly like the tuples do.
"""

from __future__ import annotations

import struct
from typing import Iterable, Sequence

from repro.core.items import Item, ItemOrder
from repro.errors import IndexBuildError

SequenceForm = tuple[int, ...]

_RANK = struct.Struct(">I")
_RANK_SIZE = _RANK.size
_TERMINATOR = b"\x00\x00\x00\x00"
#: Upper bound on ranks imposed by the fixed-width encoding (4 bytes minus the +1 shift).
MAX_RANK = 0xFFFFFFFE
#: Tag length from which :func:`encode_tag` packs in one call; below it the
#: rank-by-rank loop is faster (the two cross at 11-13 ranks on CPython 3.11).
_ONE_CALL_MIN_RANKS = 12


def sequence_form(items: Iterable[Item], order: ItemOrder) -> SequenceForm:
    """Return the sequence form (sorted rank tuple) of a set of items."""
    return tuple(sorted(order.rank_of(item) for item in items))


def sequence_form_from_ranks(ranks: Iterable[int]) -> SequenceForm:
    """Normalise an iterable of ranks into a sorted, duplicate-free tuple."""
    return tuple(sorted(set(ranks)))


def compare(left: SequenceForm, right: SequenceForm) -> int:
    """Three-way lexicographic comparison of two sequence forms."""
    if left == right:
        return 0
    return -1 if left < right else 1


def encode_tag(ranks: Sequence[int]) -> bytes:
    """Encode a sequence form as an order-preserving, self-terminated byte string.

    Block keys and equality/superset seeks encode short tags, which the
    rank-by-rank loop encodes fastest.  Subset seeks encode lower bounds of
    thousands of ranks; from :data:`_ONE_CALL_MIN_RANKS` ranks on, a tag is
    checked with builtins and packed in one call, and only an invalid one
    walks the ranks one by one, to name the offending rank.
    """
    if len(ranks) < _ONE_CALL_MIN_RANKS:
        return _encode_tag_checked(ranks)
    ranks = list(ranks)
    if (
        ranks[0] < 0
        or ranks[-1] > MAX_RANK
        or ranks != sorted(ranks)
        or len(set(ranks)) != len(ranks)
    ):
        return _encode_tag_checked(ranks)
    return struct.pack(f">{len(ranks)}I", *[rank + 1 for rank in ranks]) + _TERMINATOR


def _encode_tag_checked(ranks: Sequence[int]) -> bytes:
    """Rank-by-rank :func:`encode_tag`, raising on the first invalid rank."""
    out = bytearray()
    previous = -1
    for rank in ranks:
        if rank < 0 or rank > MAX_RANK:
            raise IndexBuildError(f"rank {rank} cannot be encoded in a 4-byte tag element")
        if rank <= previous:
            raise IndexBuildError(
                f"tag ranks must be strictly increasing, got {previous} then {rank}"
            )
        out += _RANK.pack(rank + 1)
        previous = rank
    out += _TERMINATOR
    return bytes(out)


def decode_tag(data: bytes, offset: int = 0) -> tuple[SequenceForm, int]:
    """Decode a tag previously produced by :func:`encode_tag`.

    Returns ``(ranks, next_offset)`` where ``next_offset`` points just past the
    terminator.
    """
    ranks: list[int] = []
    pos = offset
    while True:
        if pos + _RANK_SIZE > len(data):
            raise IndexBuildError("truncated tag encoding")
        (value,) = _RANK.unpack_from(data, pos)
        pos += _RANK_SIZE
        if value == 0:
            return tuple(ranks), pos
        ranks.append(value - 1)


def encode_rank(rank: int) -> bytes:
    """Encode a single rank (or record id) as 4-byte big-endian."""
    if rank < 0 or rank > 0xFFFFFFFF:
        raise IndexBuildError(f"value {rank} does not fit in 4 bytes")
    return _RANK.pack(rank)


def decode_rank(data: bytes, offset: int = 0) -> int:
    """Inverse of :func:`encode_rank`."""
    (value,) = _RANK.unpack_from(data, offset)
    return value
