"""Posting representation and posting-list codecs.

Both indexes in the paper store *postings* of the form ``(record_id, length)``:
the id of a record that contains the item, plus the cardinality of that
record's set-value.  The length is what lets equality and superset queries
prune candidates without fetching the records themselves (Section 2).

Wire format
-----------
A posting list (or OIF block) is a sequence of ``(id, length)`` pairs, both
v-byte encoded, with ids stored as d-gaps when compression is enabled::

    varint id_or_gap, varint length, varint id_or_gap, varint length, ...

There is deliberately **no leading count**: the storage layer already delimits
values exactly, and keeping the payload a pure concatenation of postings means
a batch update can *append* freshly encoded postings to an existing list
without decoding it (see :meth:`PostingListCodec.encode_continuation`) — the
cheap in-place append that makes the classic inverted file's updates faster
than the OIF's rebuild, as the paper reports.

Two codecs are provided:

* :class:`PostingListCodec` — encodes a full posting list (used by the classic
  inverted file, which stores each item's entire list as one value).
* :class:`PostingBlockCodec` — encodes one OIF block of postings.  Blocks are
  independent units, so each block restarts the d-gap sequence with an absolute
  first id (this is the small space overhead the paper mentions for the OIF).

Columnar hot path
-----------------
The scalar :meth:`PostingListCodec.decode` pays a Python-level
``decode_uint`` call plus a :class:`Posting` allocation per posting — the
dominant CPU cost of query evaluation.  :func:`decode_columns` decodes a
whole buffer into a :class:`PostingColumns` — two parallel ``array('Q')``
columns (ids via cumulative d-gap prefix sum, lengths) — in a single tight
loop, with a pure-C fast path when every varint fits in one byte (the common
case for d-gapped lists).  :func:`encode_columns` is the matching batch
encoder.  ``Posting`` stays as a lazy per-element view for compatibility:
iterating or indexing a :class:`PostingColumns` materializes postings on
demand.

numpy paths
-----------
The vectorized decoder here, the bitmap kernels in
:mod:`repro.core.intersect` and the packed-word conversions in
:mod:`repro.core.postings` use numpy when it is importable, through
:func:`numpy_module`; the decoder only switches to it at
:data:`_VECTOR_DECODE_BYTES`, below which the fixed vector-op dispatch
overhead loses to the tight Python loop.  Every vectorized path has a
pure-Python twin with bit-identical results.  :func:`set_backend` is the
test seam between the two modes:

* ``auto`` (default) — numpy when importable;
* ``python`` — pure-Python everywhere, exactly what runs when numpy is not
  installed.  The CI no-numpy job keeps these paths green.
"""

from __future__ import annotations

import sys
from array import array
from itertools import accumulate, chain
from typing import Iterable, Iterator, NamedTuple, Sequence

from repro.compression import vbyte
from repro.errors import CompressionError

try:  # the pure-Python paths stand alone when numpy is not installed
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

_CONTINUATION_BIT = 0x80
_PAYLOAD_MASK = 0x7F

#: Buffers at least this large take the numpy decode path in ``auto`` mode:
#: below it the ~15 fixed vector-op dispatches cost more than the loop saves
#: (OIF blocks sit well under this; whole IF lists sit well over it).
_VECTOR_DECODE_BYTES = 1536

#: The two posting-layer modes (see the module docstring).
_BACKENDS = ("auto", "python")
_backend = "auto"


def set_backend(mode: str) -> None:
    """Select the posting-layer mode: ``auto`` or ``python``."""
    global _backend
    if mode not in _BACKENDS:
        raise CompressionError(f"backend {mode!r} is not one of {_BACKENDS}")
    _backend = mode


def get_backend() -> str:
    """The posting-layer backend currently in effect."""
    return _backend


def numpy_module():
    """The numpy module when the backend allows it, else ``None``.

    Every vectorized path in the posting layer gates on this, so
    ``set_backend("python")`` exercises exactly the code that runs when
    numpy is not installed.
    """
    return None if _backend == "python" else _np


class Posting(NamedTuple):
    """One inverted-list entry: a record id and the record's set cardinality."""

    record_id: int
    length: int


def postings_from_pairs(pairs: Iterable[tuple[int, int]]) -> list[Posting]:
    """Build a list of :class:`Posting` from ``(record_id, length)`` pairs."""
    return [Posting(record_id, length) for record_id, length in pairs]


class PostingColumns:
    """One decoded posting run as two parallel columns: ``ids`` and ``lengths``.

    ``ids`` is strictly increasing (the decoder resolves d-gaps into absolute
    ids), so the query algorithms intersect and filter directly on it with
    merge joins and :mod:`bisect` — no per-posting objects, no hashing.  The
    columns are ``array('Q')`` normally; values beyond 64 bits fall back to
    plain lists (same interface, no silent truncation).

    The class is also a lazy :class:`Posting` view: ``len``, iteration and
    indexing behave like the list the scalar decoder used to return.
    """

    __slots__ = ("ids", "lengths")

    def __init__(self, ids: Sequence[int], lengths: Sequence[int]) -> None:
        self.ids = ids
        self.lengths = lengths

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Posting]:
        for record_id, length in zip(self.ids, self.lengths):
            yield Posting(record_id, length)

    def __getitem__(self, index: int) -> Posting:
        return Posting(self.ids[index], self.lengths[index])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PostingColumns):
            return list(self.ids) == list(other.ids) and list(self.lengths) == list(
                other.lengths
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"PostingColumns({len(self)} postings)"

    @property
    def nbytes(self) -> int:
        """True cached footprint (the decoded-block cache budget's unit).

        Charges both parallel columns *including* their container overhead
        (``sys.getsizeof`` covers the ``array`` header plus its buffer) and
        the object header itself — not just the id payload — so the
        ``decoded_cache_bytes`` budget reflects what the cache actually
        holds.  Plain-list fallback columns additionally charge the boxed
        ints the list keeps alive.
        """
        total = sys.getsizeof(self)
        for column in (self.ids, self.lengths):
            total += sys.getsizeof(column)
            if not isinstance(column, array):
                total += 28 * len(column)  # boxed ints held by a plain list
        return total

    def postings(self) -> list[Posting]:
        """Materialize the classic ``list[Posting]`` form."""
        return [Posting(record_id, length) for record_id, length in zip(self.ids, self.lengths)]

    @classmethod
    def from_postings(cls, postings: Sequence[Posting]) -> "PostingColumns":
        """Build columns from the classic posting-list form."""
        return _as_columns(
            [posting.record_id for posting in postings],
            [posting.length for posting in postings],
        )


def _as_columns(ids: list[int], lengths: list[int]) -> PostingColumns:
    """Pack id/length lists into ``array('Q')`` columns (lists past 64 bits)."""
    try:
        return PostingColumns(array("Q", ids), array("Q", lengths))
    except OverflowError:
        return PostingColumns(ids, lengths)


def _decode_columns_vectorized(data: bytes, compress: bool) -> "PostingColumns | None":
    """Vectorized decode of one posting buffer (numpy, large buffers only).

    Horner-style reassembly: every terminator byte marks one varint; each
    extra width level folds the preceding continuation bytes in with one
    masked shift-or.  Returns ``None`` when a varint is too wide for exact
    64-bit vector math (the caller falls back to the exact Python loop).
    """
    buf = _np.frombuffer(data, _np.uint8)
    if data[-1] >= _CONTINUATION_BIT:
        raise CompressionError(
            "truncated v-byte stream: posting buffer ends inside an integer"
        )
    term_pos = _np.flatnonzero(buf < _CONTINUATION_BIT)
    if len(term_pos) % 2:
        raise CompressionError("posting buffer holds an id without a length")
    widths = _np.diff(term_pos, prepend=-1)
    wmax = int(widths.max())
    if wmax > 8:
        return None  # > 56-bit values: stay exact via the Python loop
    values = buf[term_pos].astype(_np.int64)
    for level in range(1, wmax):
        mask = widths > level
        values[mask] = (values[mask] << 7) | (buf[term_pos[mask] - level] & _PAYLOAD_MASK)
    raw_ids = values[0::2]
    ids = _np.cumsum(raw_ids) if compress else raw_ids
    id_column = array("Q")
    id_column.frombytes(ids.astype(_np.uint64).tobytes())
    length_column = array("Q")
    length_column.frombytes(values[1::2].astype(_np.uint64).tobytes())
    return PostingColumns(id_column, length_column)


def decode_columns(data: bytes, *, compress: bool = True, offset: int = 0) -> PostingColumns:
    """Batch-decode a whole posting buffer into :class:`PostingColumns`.

    Semantically identical to the scalar ``codec.decode`` (same wire format,
    same ids and lengths) but decoded in one pass:

    * **fast path** — when no byte carries the continuation flag, every
      varint is a single byte: even positions are id gaps, odd positions are
      lengths, and the columns are built entirely by C-level slicing and
      :func:`itertools.accumulate` prefix summing;
    * **vector path** — decodes with a handful of numpy vector ops when the
      backend allows it (:func:`numpy_module`): in ``auto`` mode only for
      buffers past :data:`_VECTOR_DECODE_BYTES` (whole inverted lists, not
      OIF blocks), in ``numpy`` mode for every buffer;
    * **general path** — a single Python loop over the bytes, toggling
      between the id and the length of each pair; no per-integer function
      calls, no intermediate :class:`Posting` objects.

    Raises :class:`CompressionError` on a truncated trailing integer or a
    dangling id without its length.
    """
    if offset:
        if offset < 0 or offset > len(data):
            raise CompressionError(
                f"posting decode offset {offset} outside buffer of {len(data)} bytes"
            )
        data = data[offset:]
    if not data:
        return PostingColumns(array("Q"), array("Q"))

    if numpy_module() is not None and len(data) >= _VECTOR_DECODE_BYTES:
        columns = _decode_columns_vectorized(data, compress)
        if columns is not None:
            return columns

    if max(data) < _CONTINUATION_BIT:
        # Every varint is one byte: even positions are id gaps, odd positions
        # are lengths, and both columns are built entirely in C.
        if len(data) % 2:
            raise CompressionError(
                "posting buffer holds an id without a length (odd varint count)"
            )
        raw_ids = data[0::2]
        lengths = array("Q", list(data[1::2]))
        if compress:
            return PostingColumns(array("Q", accumulate(raw_ids)), lengths)
        return PostingColumns(array("Q", list(raw_ids)), lengths)

    # Mixed widths: one tight loop over the bytes builds the flat value run,
    # then de-interleaving (slicing) and the d-gap prefix sum happen in C.
    # The loop mirrors vbyte.decode_batch, inlined to keep the hot path to a
    # single pass over the buffer.
    values: list[int] = []
    append = values.append
    value = 0
    shift = 0
    for byte in data:
        if byte >= _CONTINUATION_BIT:
            value |= (byte & _PAYLOAD_MASK) << shift
            shift += 7
        else:
            append(value | (byte << shift))
            value = 0
            shift = 0
    if shift:
        raise CompressionError(
            "truncated v-byte stream: posting buffer ends inside an integer"
        )
    if len(values) % 2:
        raise CompressionError("posting buffer holds an id without a length")
    gaps = values[0::2]
    lengths_list = values[1::2]
    if not compress:
        return _as_columns(gaps, lengths_list)
    try:
        return PostingColumns(array("Q", accumulate(gaps)), array("Q", lengths_list))
    except OverflowError:
        return PostingColumns(list(accumulate(gaps)), lengths_list)


def encode_columns(
    ids: Sequence[int],
    lengths: Sequence[int],
    *,
    compress: bool = True,
    previous_id: int = 0,
) -> bytes:
    """Batch-encode parallel id/length columns; byte-identical to the scalar
    ``codec.encode`` of the corresponding posting list.

    ``previous_id`` plays the role of ``encode_continuation``'s anchor: the
    first id is d-gapped against it (``0`` for a fresh list).  Validation
    mirrors the scalar encoder: ids strictly increasing (and greater than
    ``previous_id`` when continuing), lengths non-negative.
    """
    if len(ids) != len(lengths):
        raise CompressionError(
            f"column length mismatch: {len(ids)} ids vs {len(lengths)} lengths"
        )
    if not ids:
        return b""
    if previous_id < 0:
        raise CompressionError("previous_id must be non-negative")
    gaps: list[int] = []
    previous = previous_id
    first = True
    for record_id in ids:
        gap = record_id - previous
        if first:
            first = False
            if record_id < 0 or (previous_id and gap <= 0):
                raise CompressionError(
                    "postings must be sorted by strictly increasing record id; "
                    f"got {previous} then {record_id}"
                )
        elif gap <= 0:
            raise CompressionError(
                "postings must be sorted by strictly increasing record id; "
                f"got {previous} then {record_id}"
            )
        gaps.append(gap if compress else record_id)
        previous = record_id
    low = min(lengths)
    if low < 0:
        raise CompressionError(f"record length must be non-negative, got {low}")
    if max(gaps) < _CONTINUATION_BIT and max(lengths) < _CONTINUATION_BIT:
        # Every varint is one byte: interleave the columns entirely in C.
        return bytes(chain.from_iterable(zip(gaps, lengths)))
    out = bytearray()
    append = out.append
    for value in chain.from_iterable(zip(gaps, lengths)):
        while value >= _CONTINUATION_BIT:
            append((value & _PAYLOAD_MASK) | _CONTINUATION_BIT)
            value >>= 7
        append(value)
    return bytes(out)


def _validate(postings: Sequence[Posting], previous_id: int = -1) -> None:
    previous = previous_id
    for posting in postings:
        if posting.record_id <= previous:
            raise CompressionError(
                "postings must be sorted by strictly increasing record id; "
                f"got {previous} then {posting.record_id}"
            )
        if posting.length < 0:
            raise CompressionError(
                f"record length must be non-negative, got {posting.length}"
            )
        previous = posting.record_id


class PostingListCodec:
    """Codec for a complete inverted list (one item's postings).

    Parameters
    ----------
    compress:
        When ``True`` (default) the ids are stored as d-gaps; when ``False``
        they are stored as absolute values.  Both variants use v-byte for the
        integers themselves, mirroring the paper's byte-wise scheme.
    """

    def __init__(self, compress: bool = True) -> None:
        self.compress = compress

    def encode(self, postings: Sequence[Posting]) -> bytes:
        """Serialize ``postings`` (sorted by record id) into bytes."""
        _validate(postings)
        return self._encode_from(postings, previous_id=0)

    def encode_continuation(self, postings: Sequence[Posting], previous_last_id: int) -> bytes:
        """Serialize postings that will be appended after an existing list.

        ``previous_last_id`` is the last record id already stored in the list;
        with compression enabled the first new id is encoded as a gap from it,
        so the concatenation ``old_bytes + continuation_bytes`` decodes to the
        merged list without ever decoding ``old_bytes``.
        """
        if previous_last_id < 0:
            raise CompressionError("previous_last_id must be non-negative")
        _validate(postings, previous_id=previous_last_id)
        return self._encode_from(postings, previous_id=previous_last_id)

    def _encode_from(self, postings: Sequence[Posting], previous_id: int) -> bytes:
        out = bytearray()
        previous = previous_id if self.compress else 0
        for posting in postings:
            if self.compress:
                vbyte.encode_uint(posting.record_id - previous, out)
                previous = posting.record_id
            else:
                vbyte.encode_uint(posting.record_id, out)
            vbyte.encode_uint(posting.length, out)
        return bytes(out)

    def decode(self, data: bytes, offset: int = 0) -> list[Posting]:
        """Deserialize a posting list previously produced by :meth:`encode`.

        Decoding runs to the end of ``data``: values are exactly delimited by
        the storage layer, so no explicit count is needed.  This is the
        *scalar reference* decoder (one ``decode_uint`` call per integer);
        the hot paths use :meth:`decode_columns` instead, and the property
        suite asserts the two stay equivalent.
        """
        postings: list[Posting] = []
        position = offset
        end = len(data)
        current = 0
        while position < end:
            value, position = vbyte.decode_uint(data, position)
            length, position = vbyte.decode_uint(data, position)
            if self.compress:
                current += value
                postings.append(Posting(current, length))
            else:
                postings.append(Posting(value, length))
        return postings

    def decode_columns(self, data: bytes, offset: int = 0) -> PostingColumns:
        """Batch-decode a whole buffer into columnar form (the hot path)."""
        return decode_columns(data, compress=self.compress, offset=offset)

    def encode_columns_form(
        self, ids: Sequence[int], lengths: Sequence[int], previous_id: int = 0
    ) -> bytes:
        """Batch-encode parallel columns; byte-identical to :meth:`encode`."""
        return encode_columns(
            ids, lengths, compress=self.compress, previous_id=previous_id
        )

    def encoded_size(self, postings: Sequence[Posting]) -> int:
        """Return the byte size of :meth:`encode` without materialising it."""
        total = 0
        previous = 0
        for posting in postings:
            if self.compress:
                total += vbyte.encoded_size(posting.record_id - previous)
                previous = posting.record_id
            else:
                total += vbyte.encoded_size(posting.record_id)
            total += vbyte.encoded_size(posting.length)
        return total


class PostingBlockCodec(PostingListCodec):
    """Codec for one OIF block.

    Identical wire format to :class:`PostingListCodec`; the distinction exists
    because blocks are encoded independently (each restarts its d-gap chain),
    and because the OIF build path sizes blocks by their encoded size.
    """
