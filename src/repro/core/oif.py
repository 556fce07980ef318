"""The Ordered Inverted File (OIF) — the paper's primary contribution.

An :class:`OrderedInvertedFile` is built from a :class:`~repro.core.records.Dataset`
in four steps (Section 3):

1. derive the frequency order ``<_D`` over the items (Equation 1);
2. sort the records lexicographically by sequence form and assign new internal
   ids 1..N (:mod:`repro.core.ordering`);
3. compute the metadata table of Theorem 1 (one contiguous id region per
   smallest item), which removes one posting per record;
4. split every item's remaining postings into blocks, tag each block with the
   sequence form of its last record, and bulk-load all blocks of all lists into
   a single B+-tree keyed by ``(item, tag, last id)``.

Queries are evaluated by the Range-of-Interest algorithms in
:mod:`repro.core.queries`; results are returned as the *original* record ids of
the source dataset.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.compression.postings import Posting, PostingBlockCodec, PostingColumns
from repro.core import queries as _queries
from repro.core.blocks import BlockKey, BlockWriter, TagLookup, search_key
from repro.core.interfaces import SetContainmentIndex
from repro.core.items import Item, ItemOrder
from repro.core.metadata import MetadataTable
from repro.core.ordering import OrderedDataset, order_dataset
from repro.core.postings import (
    DEFAULT_DENSE_RATIO,
    REPR_ARRAY,
    REPR_BITMAP,
    DensePostings,
    choose_representation,
    record_repr_choice,
    to_dense,
)
from repro.core.records import Dataset
from repro.core.roi import RangeOfInterest, subset_roi
from repro.core.sequence import SequenceForm
from repro.errors import IndexBuildError, IndexNotBuiltError, QueryError
from repro.obs import trace
from repro.storage.block_cache import DEFAULT_DECODED_CACHE_BYTES, DecodedBlockCache
from repro.storage.kvstore import PAPER_CACHE_BYTES, Environment
from repro.storage.pager import DEFAULT_PAGE_SIZE
from repro.storage.stats import ReadContext


@dataclass(frozen=True)
class OIFBuildReport:
    """Summary of one OIF build, used by the space and update experiments."""

    num_records: int
    num_items: int
    num_postings: int
    postings_saved_by_metadata: int
    num_blocks: int
    index_pages: int
    index_size_bytes: int
    build_seconds: float


_BLOCK_POINTER = struct.Struct("<IHH")  # data page id, offset within page, length


class BlockRef:
    """Handle to one stored block: loads (and charges) its data only on demand.

    With the default *paged* layout the B-tree leaves hold only the block keys
    plus a small pointer, and the postings live on dedicated data pages — the
    layout Berkeley DB uses for large data items.  Skipping a block during
    query evaluation therefore skips its data page entirely; only blocks whose
    postings are actually merged cost a page access.  With ``inline_blocks``
    the postings sit next to the key and :meth:`postings` is a pure decode.
    """

    __slots__ = ("_oif", "_inline", "_page_id", "_offset", "_length", "_dense")

    def __init__(
        self,
        oif: "OrderedInvertedFile",
        inline: bytes | None = None,
        page_id: int = 0,
        offset: int = 0,
        length: int = 0,
        dense: bool = False,
    ) -> None:
        self._oif = oif
        self._inline = inline
        self._page_id = page_id
        self._offset = offset
        self._length = length
        self._dense = dense

    @property
    def encoded_length(self) -> int:
        """Size in bytes of the encoded block."""
        if self._inline is not None:
            return len(self._inline)
        return self._length

    def raw(self, ctx: "ReadContext | None" = None) -> bytes:
        """Return the encoded block bytes (reads the data page if needed)."""
        if self._inline is not None:
            return self._inline
        page = self._oif.env.pool.get_page(self._page_id, ctx)
        return bytes(page[self._offset : self._offset + self._length])

    def decoded(self, ctx: "ReadContext | None" = None) -> "PostingColumns | DensePostings":
        """The block's postings in their chosen representation — the hot path.

        Blocks of an item tagged dense at build time decode into a
        :class:`~repro.core.postings.DensePostings` bitmap (subject to the
        geometry guard — a block whose ids sprawl keeps the array form);
        everything else stays :class:`PostingColumns`.  The intersection
        kernels dispatch on the returned type.

        Consults the owning index's decoded-block cache first; the cached
        entry is the chosen representation, so the conversion happens once
        per residency.  A cache hit skips the v-byte decode *but still
        charges the data-page access* to ``ctx`` and the pool totals: the
        cache removes CPU, never simulated I/O, so page counts stay identical
        with and without it — and identical across representations, which
        never touch storage.  The lookup itself is recorded as a
        ``decoded_hit`` / ``decoded_miss`` on the same context.
        """
        token = trace.stage_begin()
        try:
            if self._inline is not None:
                # Inline blocks ride in the B-tree leaves and have no stable
                # (page, offset) identity; decode directly.
                return self._choose(self._oif.decode_columns(self._inline))
            cache = self._oif.decoded_cache
            if cache is None:
                return self._choose(self._oif.decode_columns(self.raw(ctx)))
            entry = cache.get((self._page_id, self._offset), ctx)
            page = self._oif.env.pool.get_page(self._page_id, ctx)
            if entry is None:
                raw = bytes(page[self._offset : self._offset + self._length])
                entry = self._choose(self._oif.decode_columns(raw))
                cache.put((self._page_id, self._offset), entry)
            return entry
        finally:
            trace.stage_end("decode", token)

    def _choose(self, columns: PostingColumns) -> "PostingColumns | DensePostings":
        """Apply the block's representation tag to a freshly decoded block."""
        if self._dense:
            dense = to_dense(columns)
            if dense is not None:
                record_repr_choice(REPR_BITMAP)
                return dense
        record_repr_choice(REPR_ARRAY)
        return columns

    def columns(self, ctx: "ReadContext | None" = None) -> PostingColumns:
        """The block's postings in columnar form (see :meth:`decoded`).

        Callers that need sorted id columns regardless of representation —
        equality/superset evaluation, streaming single-item subsets — go
        through here; a dense entry materializes its columns on the fly.
        """
        entry = self.decoded(ctx)
        if isinstance(entry, DensePostings):
            return entry.to_columns()
        return entry

    def postings(self, ctx: "ReadContext | None" = None) -> list[Posting]:
        """Decode the block's postings, charging the data-page read to ``ctx``."""
        return self.columns(ctx).postings()


class _BlockPageWriter:
    """Packs encoded blocks onto dedicated, sequentially allocated data pages."""

    def __init__(self, pool) -> None:
        self._pool = pool
        self._page_size = pool.page_file.page_size
        self._page_id: int | None = None
        self._used = 0

    def write(self, data: bytes) -> tuple[int, int, int]:
        """Store ``data`` and return its ``(page_id, offset, length)`` pointer."""
        if len(data) > self._page_size:
            raise IndexBuildError(
                f"encoded block of {len(data)} bytes exceeds the page size {self._page_size}"
            )
        if self._page_id is None or self._used + len(data) > self._page_size:
            self._page_id = self._pool.allocate_page()
            self._used = 0
        page = self._pool.get_page(self._page_id)
        page[self._used : self._used + len(data)] = data
        self._pool.mark_dirty(self._page_id)
        pointer = (self._page_id, self._used, len(data))
        self._used += len(data)
        return pointer


class OrderedInvertedFile(SetContainmentIndex):
    """Disk-resident ordered inverted file over a set-valued dataset.

    Parameters
    ----------
    dataset:
        The records to index.
    env:
        Storage environment; a fresh in-memory environment with the paper's
        32 KB cache is created when omitted.
    block_capacity:
        Maximum number of postings per block.
    max_block_bytes:
        Maximum encoded size of a block; defaults to half the page size so a
        block plus its key always fits in one B-tree leaf.
    compress:
        Store posting ids as v-byte d-gaps (the paper's default).  Disable to
        measure the impact of compression.
    use_metadata:
        Keep the Theorem 1 metadata table and drop the postings it makes
        redundant.  Disable for the ablation experiments.
    narrow_candidate_range:
        Apply Algorithm 1's progressive candidate-range narrowing.
    tag_prefix:
        When set, block tags are truncated to this many items (the key-size
        reduction mentioned in Section 3).  ``None`` keeps full tags.
    inline_blocks:
        By default (``False``) block postings live on dedicated data pages and
        the B-tree stores only keys plus small pointers — the Berkeley DB
        layout for large data items, which lets query evaluation skip the data
        pages of pruned blocks.  Set to ``True`` to store postings inline next
        to their keys (an ablation of the key/data separation).
    decoded_cache_bytes:
        Byte budget of the decoded-page cache kept above the buffer pool
        (see :class:`~repro.storage.block_cache.DecodedBlockCache`).  It
        holds decoded posting blocks *and* the decoded B-tree nodes of the
        block table, under one budget: repeat and concurrent traversals of
        the same block or node skip the decode entirely while still paying
        the page access.  Pass ``0`` (or ``None``) to disable both.
        Invalidated on every rebuild and on :meth:`drop_cache`.
    posting_repr:
        ``"auto"`` (default) decodes blocks of items whose support reaches
        ``dense_ratio`` of the record count as packed bitmaps
        (:class:`~repro.core.postings.DensePostings`) and routes them through
        the bitmap intersection kernels; ``"array"`` keeps every block in
        sorted-id column form.  The stored bytes, the pages read and every
        result are identical either way — only decode shape and CPU differ.
    dense_ratio:
        Density threshold for ``posting_repr="auto"``; an item appearing in
        at least this fraction of records is tagged dense at build/flush
        time.  Defaults to ``1/64``.
    item_order:
        Override the ``<_D`` order (e.g. to study non-frequency orderings).
    catalog_pages:
        When building a fresh environment (``env`` omitted), reserve page 0
        as a table catalog so the page image can be snapshotted and reopened
        verbatim — the prerequisite for durability snapshots and for the
        multiprocess shard backend.  Ignored when ``env`` is supplied.
    """

    name = "OIF"

    def __init__(
        self,
        dataset: Dataset,
        env: Environment | None = None,
        *,
        block_capacity: int = 128,
        max_block_bytes: int | None = None,
        compress: bool = True,
        use_metadata: bool = True,
        narrow_candidate_range: bool = True,
        tag_prefix: int | None = None,
        inline_blocks: bool = False,
        fill_factor: float = 0.9,
        page_size: int = DEFAULT_PAGE_SIZE,
        cache_bytes: int = PAPER_CACHE_BYTES,
        decoded_cache_bytes: "int | None" = DEFAULT_DECODED_CACHE_BYTES,
        posting_repr: str = "auto",
        dense_ratio: float = DEFAULT_DENSE_RATIO,
        item_order: ItemOrder | None = None,
        catalog_pages: bool = False,
        build: bool = True,
    ) -> None:
        if env is None:
            env = Environment(
                page_size=page_size, cache_bytes=cache_bytes, catalog=catalog_pages
            )
        super().__init__(dataset, env)
        if posting_repr not in ("auto", "array"):
            raise QueryError(
                f"posting_repr must be 'auto' or 'array', got {posting_repr!r}"
            )
        self.posting_repr = posting_repr
        self.dense_ratio = dense_ratio
        # item rank -> representation tag, chosen from the list's support at
        # build time (rebuilds — the OIF's flush path — re-choose, so lists
        # crossing the threshold switch representation then).  Advisory: the
        # decode-time geometry guard still has the final say per block.
        self._list_repr: dict[int, str] = {}
        self.decoded_cache: "DecodedBlockCache | None" = (
            DecodedBlockCache(decoded_cache_bytes, stats=env.stats)
            if decoded_cache_bytes
            else None
        )
        self.block_capacity = block_capacity
        self.inline_blocks = inline_blocks
        if max_block_bytes is not None:
            self.max_block_bytes = max_block_bytes
        elif inline_blocks:
            self.max_block_bytes = env.page_size // 2
        else:
            self.max_block_bytes = env.page_size - 64
        self.compress = compress
        self.use_metadata = use_metadata
        self.narrow_candidate_range = narrow_candidate_range
        self.tag_prefix = tag_prefix
        self.fill_factor = fill_factor
        self._requested_order = item_order
        self._codec = PostingBlockCodec(compress=compress)
        self._ordered: OrderedDataset | None = None
        self._table = None
        self.build_report: OIFBuildReport | None = None
        if build:
            self.build()

    # -- construction --------------------------------------------------------------

    def build(self) -> OIFBuildReport:
        """(Re)build the index from the current dataset contents."""
        start = time.perf_counter()
        if self.decoded_cache is not None:
            # The rebuild lays blocks out on fresh pages; any cached decode
            # keyed by the old (page, offset) locations is stale.
            self.decoded_cache.invalidate()
        ordered = order_dataset(self.dataset, self._requested_order)
        posting_lists = self._collect_posting_lists(ordered)

        # Tag each list's representation from its support before the blocks
        # are laid out, so query-time decode never re-inspects frequencies.
        # Supports come from the vocabulary (not the stored list length): the
        # metadata table removes one posting per record, but density is a
        # property of the item, not of what survived Theorem 1.
        num_records = len(self.dataset)
        order = ordered.order
        self._list_repr = {
            rank: choose_representation(
                # Orders built without support stats (explicit overrides) fall
                # back to the stored list length — support minus the records
                # Theorem 1 covers, i.e. a slight, safe underestimate.
                order.support(order.item_at(rank)) or len(posting_lists[rank]),
                num_records,
                self.dense_ratio,
            )
            for rank in posting_lists
        }

        block_count = 0
        posting_count = 0

        def blocks() -> Iterator:
            nonlocal block_count, posting_count
            tag_lookup = TagLookup(ordered.sequence_forms)
            for item_rank in sorted(posting_lists):
                writer = BlockWriter(
                    item_rank=item_rank,
                    codec=self._codec,
                    tag_for=tag_lookup,
                    block_capacity=self.block_capacity,
                    max_block_bytes=self.max_block_bytes,
                    tag_prefix=self.tag_prefix,
                )
                for posting in posting_lists[item_rank]:
                    block = writer.add(posting)
                    if block is not None:
                        block_count += 1
                        posting_count += len(block.postings)
                        yield block
                block = writer.finish()
                if block is not None:
                    block_count += 1
                    posting_count += len(block.postings)
                    yield block

        if self.inline_blocks:
            # Blocks live next to their keys in the B-tree leaves.
            entries = (
                (block.key().encode(), self._codec.encode(block.postings))
                for block in blocks()
            )
            table = self.env.create_table(self._fresh_table_name(), access_method="btree")
            table.bulk_load(entries, fill_factor=self.fill_factor)
        else:
            # Berkeley-DB-like layout: the postings of each block are written to
            # dedicated, contiguously allocated data pages (first, so a list's
            # data stays physically sequential) and the B-tree stores only the
            # key plus a small pointer.  Skipping a block during query
            # evaluation then skips its data page.
            page_writer = _BlockPageWriter(self.env.pool)
            pointer_entries: list[tuple[bytes, bytes]] = []
            for block in blocks():
                encoded = self._codec.encode(block.postings)
                page_id, offset, length = page_writer.write(encoded)
                pointer_entries.append(
                    (block.key().encode(), _BLOCK_POINTER.pack(page_id, offset, length))
                )
            table = self.env.create_table(self._fresh_table_name(), access_method="btree")
            table.bulk_load(pointer_entries, fill_factor=self.fill_factor)
        self.env.pool.flush()

        self._ordered = ordered
        self.attach_table(table)
        self._planner = None  # dataset statistics may have changed
        saved = ordered.metadata.covered_postings() if self.use_metadata else 0
        self.build_report = OIFBuildReport(
            num_records=len(self.dataset),
            num_items=len(ordered.order),
            num_postings=posting_count,
            postings_saved_by_metadata=saved,
            num_blocks=block_count,
            index_pages=self.env.page_file.num_pages,
            index_size_bytes=self.env.size_bytes,
            build_seconds=time.perf_counter() - start,
        )
        return self.build_report

    def _collect_posting_lists(self, ordered: OrderedDataset) -> dict[int, list[Posting]]:
        """Gather per-item postings in internal-id order.

        With the metadata table enabled, a record contributes no posting for
        its smallest item (the metadata region replaces it).
        """
        lists: dict[int, list[Posting]] = {}
        for index, form in enumerate(ordered.sequence_forms):
            internal_id = index + 1
            length = ordered.lengths[index]
            start = 1 if self.use_metadata else 0
            for rank in form[start:]:
                lists.setdefault(rank, []).append(Posting(internal_id, length))
        return lists

    def attach_table(self, table) -> None:
        """Install ``table`` as the block table; its B-tree shares ``decoded_cache``.

        The one place the index takes a table, whether freshly built or
        reopened from a snapshot, so every copy decodes nodes through the
        same cache as its blocks.
        """
        table.btree.node_cache = self.decoded_cache
        self._table = table

    _table_counter = 0

    def _fresh_table_name(self) -> str:
        OrderedInvertedFile._table_counter += 1
        return f"oif_blocks_{OrderedInvertedFile._table_counter}"

    # -- accessors used by the query algorithms ------------------------------------

    @property
    def ordered(self) -> OrderedDataset:
        """The reordered dataset (order, sequence forms, id maps, metadata)."""
        if self._ordered is None:
            raise IndexNotBuiltError("the OIF has not been built yet")
        return self._ordered

    @property
    def order(self) -> ItemOrder:
        """The ``<_D`` item order in effect."""
        return self.ordered.order

    @property
    def metadata(self) -> MetadataTable:
        """The Theorem 1 metadata table."""
        return self.ordered.metadata

    @property
    def domain_size(self) -> int:
        """Number of distinct items in the indexed vocabulary."""
        return len(self.ordered.order)

    def decode_columns(self, raw_value: bytes) -> PostingColumns:
        """Batch-decode one block value into its columnar form (the hot path)."""
        return self._codec.decode_columns(raw_value)

    def drop_cache(self) -> None:
        """Empty the buffer pool *and* the decoded-block cache.

        The experiment runner calls this between queries so every query is
        measured truly cold — pages and decode CPU alike.
        """
        super().drop_cache()
        if self.decoded_cache is not None:
            self.decoded_cache.invalidate()

    def scan_blocks(
        self,
        item_rank: int,
        roi: RangeOfInterest,
        start_after_id: int = 0,
        ctx: "ReadContext | None" = None,
    ) -> Iterator[tuple[BlockKey, BlockRef]]:
        """Yield ``(key, block_ref)`` for the blocks of a list overlapping ``roi``.

        The scan starts at the first block whose tag is >= ``roi.lower`` (and,
        when ``start_after_id`` is given, whose last record id exceeds it) and
        stops after yielding the first block whose tag is strictly greater than
        ``roi.upper`` — that block may still contain records inside the range,
        which is why it is included (Section 4).

        The yielded :class:`BlockRef` fetches the block's postings lazily:
        callers that decide — from the key alone — that a block cannot contain
        candidates simply never load it, which is where the OIF saves data-page
        accesses over the classic inverted file.

        When tags are stored truncated (``tag_prefix``), the seek bound is
        truncated identically: truncation is monotone under the lexicographic
        order, so starting at the truncated lower bound can only start the
        scan earlier, never skip a qualifying block.
        """
        if self._table is None:
            raise IndexNotBuiltError("the OIF has not been built yet")
        dense = self.rank_is_dense(item_rank)
        seek_lower = roi.lower if self.tag_prefix is None else roi.lower[: self.tag_prefix]
        seek = search_key(item_rank, seek_lower, start_after_id)
        # Stage marks bracket each cursor step (never a yield): the consumer
        # may suspend this generator indefinitely between blocks, and a stage
        # left open across the yield would swallow the consumer's own time.
        steps = iter(self._table.cursor(seek, ctx))
        while True:
            token = trace.stage_begin()
            try:
                step = next(steps, None)
            finally:
                trace.stage_end("block_scan", token)
            if step is None:
                return
            key_bytes, value = step
            block_key = BlockKey.decode(key_bytes)
            if block_key.item_rank != item_rank:
                return
            yield block_key, self._block_ref(value, dense)
            if block_key.tag > roi.upper:
                return

    def _block_ref(self, stored_value: bytes, dense: bool = False) -> BlockRef:
        """Wrap a stored B-tree value (inline block or pointer) in a BlockRef."""
        if self.inline_blocks:
            return BlockRef(self, inline=stored_value, dense=dense)
        page_id, offset, length = _BLOCK_POINTER.unpack(stored_value)
        return BlockRef(self, page_id=page_id, offset=offset, length=length, dense=dense)

    def rank_is_dense(self, item_rank: int) -> bool:
        """Whether blocks of this list decode as bitmaps under the current config."""
        return (
            self.posting_repr != "array"
            and self._list_repr.get(item_rank) == REPR_BITMAP
        )

    def repr_for(self, item: Item) -> str:
        """The representation tag recorded for ``item`` (explain/metrics)."""
        if self.posting_repr == "array" or self._ordered is None:
            return REPR_ARRAY
        rank = self.order.try_rank_of(item)
        if rank is None:
            return REPR_ARRAY
        return self._list_repr.get(rank, REPR_ARRAY)

    def query_ranks(self, items: Iterable[Item]) -> SequenceForm | None:
        """Translate query items to a rank tuple; ``None`` if any item is unknown."""
        ranks: list[int] = []
        for item in set(items):
            rank = self.order.try_rank_of(item)
            if rank is None:
                return None
            ranks.append(rank)
        return tuple(sorted(ranks))

    def to_original_ids(self, internal_ids: Iterable[int]) -> list[int]:
        """Map internal ids back to the source dataset's ids, sorted ascending."""
        ordered = self.ordered
        return sorted(ordered.original_id(internal_id) for internal_id in internal_ids)

    # -- the three containment predicates -------------------------------------------

    def _probe_subset(self, items: frozenset, ctx: "ReadContext | None" = None) -> list[int]:
        """Records whose set-value contains every query item (Algorithm 1)."""
        item_set = self._check_query(items)
        ranks = self.query_ranks(item_set)
        if ranks is None:
            return []
        return self.to_original_ids(_queries.evaluate_subset(self, ranks, ctx))

    def _probe_equality(self, items: frozenset, ctx: "ReadContext | None" = None) -> list[int]:
        """Records whose set-value equals the query set (Section 4.2)."""
        item_set = self._check_query(items)
        ranks = self.query_ranks(item_set)
        if ranks is None:
            return []
        return self.to_original_ids(_queries.evaluate_equality(self, ranks, ctx))

    def _probe_superset(self, items: frozenset, ctx: "ReadContext | None" = None) -> list[int]:
        """Records whose set-value is contained in the query set (Algorithm 2)."""
        item_set = self._check_query(items)
        ranks: list[int] = []
        for item in item_set:
            rank = self.order.try_rank_of(item)
            if rank is not None:
                ranks.append(rank)
        if not ranks:
            return []
        return self.to_original_ids(
            _queries.evaluate_superset(self, tuple(sorted(ranks)), ctx)
        )

    def probe(self, leaf, ctx: "ReadContext | None" = None) -> Iterator[int]:
        """Stream one predicate leaf; single-item subset probes stay lazy.

        A single-item subset query is the item's inverted list plus its
        metadata region, which the block scan yields in physical order — so a
        ``limit`` cursor that stops after ``k`` ids never loads the remaining
        blocks' data pages.  Multi-item predicates intersect whole candidate
        sets and therefore materialize before yielding.
        """
        from repro.core.query.expr import Subset

        if isinstance(leaf, Subset) and len(leaf.items) == 1:
            rank = self.order.try_rank_of(next(iter(leaf.items)))
            if rank is None:
                return iter(())
            return self._stream_single_item_subset(rank, ctx)
        return super().probe(leaf, ctx)

    def _stream_single_item_subset(
        self, item_rank: int, ctx: "ReadContext | None" = None
    ) -> Iterator[int]:
        """Yield the item's list (and metadata region) block by block."""
        ordered = self.ordered
        roi = subset_roi((item_rank,), self.domain_size)
        for _block_key, block in self.scan_blocks(item_rank, roi, ctx=ctx):
            for internal_id in block.columns(ctx).ids:
                yield ordered.original_id(internal_id)
        if self.use_metadata:
            region = self.metadata.region_for(item_rank)
            if region is not None:
                for internal_id in range(region.lower, region.upper + 1):
                    yield ordered.original_id(internal_id)

    @staticmethod
    def _check_query(items: Iterable[Item]) -> frozenset:
        item_set = frozenset(items)
        if not item_set:
            raise QueryError("containment queries require a non-empty query set")
        return item_set

    # -- space accounting ----------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        """Number of posting blocks stored in the B-tree."""
        if self.build_report is None:
            raise IndexNotBuiltError("the OIF has not been built yet")
        return self.build_report.num_blocks

    @property
    def posting_bytes(self) -> int:
        """Total encoded size of the stored posting blocks (excludes B-tree overhead)."""
        if self._table is None:
            raise IndexNotBuiltError("the OIF has not been built yet")
        return sum(
            self._block_ref(value).encoded_length for _, value in self._table.cursor(b"")
        )

    def list_block_count(self, item: Item) -> int:
        """Number of blocks the item's inverted list is split into.

        Used by the space experiment and by tests.  Scanning the list charges
        logical reads as a side effect; call on a dedicated environment when
        the counters matter.
        """
        rank = self.order.try_rank_of(item)
        if rank is None:
            raise QueryError(f"item {item!r} is not in the indexed vocabulary")
        whole_list = RangeOfInterest(lower=(), upper=(self.domain_size - 1,))
        return sum(1 for _ in self.scan_blocks(rank, whole_list))
