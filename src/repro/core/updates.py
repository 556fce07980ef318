"""Batch updates for disk-resident inverted indexes (Section 4.4).

Both the classic inverted file and the OIF keep their lists contiguous on
disk, so neither supports cheap in-place insertion.  The standard technique —
which the paper adopts — is to buffer fresh records in a small **memory
resident** delta index so they are immediately queryable, and to merge them
into the disk index in batch when the buffer fills up.

The difference between the two structures lies in the merge step:

* the classic IF appends the new postings to the end of each affected list;
* the OIF must re-sort the records (new ids!) and rebuild its blocks, which is
  why the paper measures its updates to be roughly 3–5x slower — a price that
  is paid back because queries vastly outnumber updates in the target
  workloads (the break-even ratio reported is ~766 updates per query).

The delta is a plain record buffer: its records are few and memory
resident, so a query checks each one with the expression's per-record
semantics (:meth:`~repro.core.query.expr.Expr.matches`) and unions the
matches into the disk index's answer.  This module provides that buffer,
updatable wrappers around both index types (plus the sharded OIF) and the
:class:`UpdateReport` used by the update experiment.  A wrapper can also
rebuild its disk index without holding queries and writes off for the
build (:meth:`_UpdatableBase.rebuild`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.baselines.inverted_file import InvertedFile
from repro.concurrency import ReadWriteLock
from repro.core.items import Item
from repro.core.oif import OrderedInvertedFile
from repro.core.records import Dataset, Record
from repro.core.shard import ShardedIndex
from repro.errors import QueryError
from repro.obs import trace
from repro.storage.kvstore import Environment
from repro.storage.stats import IOSnapshot


class DeltaInvertedFile:
    """Memory-resident buffer of the records not yet merged into the disk index.

    A plain id -> item-set map with no per-item lists: every query path
    checks the buffered records one by one in
    :meth:`_UpdatableBase._merge_delta_and_slice`, and sharded flushes group
    them by owner in :meth:`~repro.core.shard.ShardedIndex.absorb`.
    """

    def __init__(self) -> None:
        self._records: dict[int, frozenset] = {}

    def add(self, record: Record) -> None:
        """Buffer one fresh record."""
        self._records[record.record_id] = record.items

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, record_id: int) -> bool:
        return record_id in self._records

    def remove(self, record_id: int) -> frozenset:
        """Un-buffer one pending record (a delete caught it before any merge)."""
        return self._records.pop(record_id)

    @property
    def records(self) -> list[Record]:
        """The buffered records, in ascending id order."""
        return [Record(record_id, items) for record_id, items in sorted(self._records.items())]

    def items(self):
        """Live ``(record_id, items)`` view of the buffer, in insertion order."""
        return self._records.items()

    def clear(self) -> None:
        """Drop the buffer (after a successful merge)."""
        self._records.clear()


@dataclass(frozen=True)
class UpdateReport:
    """Cost of one batch merge."""

    index_name: str
    records_merged: int
    merge_seconds: float
    page_writes: int
    page_reads: int

    @property
    def seconds_per_record(self) -> float:
        """Amortised merge cost per record (the paper reports ms/record)."""
        if not self.records_merged:
            return 0.0
        return self.merge_seconds / self.records_merged


#: Callback invoked with the set-values of freshly inserted records.  The
#: serving layer registers these to invalidate affected result-cache entries.
UpdateListener = Callable[[list[frozenset]], None]


class _UpdatableBase:
    """Shared plumbing for the updatable index wrappers.

    Every wrapper carries a :class:`~repro.concurrency.ReadWriteLock`
    (``rwlock``): queries take the read side — any number run concurrently,
    the storage engine below is reader-safe — while ``insert``, ``delete``
    and ``flush`` take the exclusive write side (they mutate the delta
    buffer and swap the disk index).  :meth:`rebuild` builds with no lock
    held and takes the write side only to swap.

    Each wrapper builds its disk index in exactly one place, ``_build``;
    ``_configure`` records what that build needs beyond the dataset.
    """

    def __init__(self, dataset: Dataset, index) -> None:
        self.dataset = dataset
        self.index = index
        self.delta = DeltaInvertedFile()
        #: Concurrent readers / exclusive insert+flush.
        self.rwlock = ReadWriteLock()
        self._next_id = max(dataset.record_ids) + 1
        #: Ids of base-index records deleted but not yet merged out: queries
        #: filter them, :meth:`flush` drops them from the rebuilt dataset.
        self._tombstones: set[int] = set()
        self._update_listeners: list[UpdateListener] = []
        #: Writes acked since an in-flight :meth:`rebuild` took its snapshot,
        #: as :meth:`replay` frames; ``None`` while no rebuild runs.
        self._journal: "list[dict] | None" = None
        self._rebuild_lock = threading.Lock()

    @classmethod
    def from_existing(
        cls, index, dataset: Dataset, *, next_id: "int | None" = None, **build_options
    ):
        """Wrap an already-built index (e.g. one reopened from disk) — no build.

        ``build_options`` are the constructor's keyword options, kept for
        later flushes and rebuilds.  ``next_id`` resumes the id counter where
        a persisted index left it (deletes may have freed the largest ids).
        """
        wrapper = cls.__new__(cls)
        wrapper._configure(**build_options)
        _UpdatableBase.__init__(wrapper, dataset, index)
        if next_id is not None:
            wrapper._next_id = max(wrapper._next_id, next_id)
        return wrapper

    def _configure(self) -> None:
        """Record the options :meth:`_build` needs (none by default)."""

    def _build(self, dataset: Dataset):
        """Build a fresh disk index over ``dataset`` — the wrapper's one build."""
        raise NotImplementedError

    def _install(self, dataset: Dataset, index) -> None:
        """Make ``index`` over ``dataset`` the base, with nothing pending."""
        self.dataset = dataset
        self.index = index
        self.delta.clear()
        self._tombstones.clear()

    def add_update_listener(self, listener: UpdateListener) -> None:
        """Register a callback fired after each :meth:`insert` batch.

        Buffered records are immediately queryable through the delta buffer, so
        any cached result affected by them is stale from the moment ``insert``
        returns — which is why the hook fires on insert, not on flush (the
        merge changes the physical layout but not any query answer).
        """
        self._update_listeners.append(listener)

    def insert(self, transactions: Iterable[Iterable[Item]]) -> list[int]:
        """Buffer new records in the memory-resident delta; returns their ids.

        Exclusive: takes the write side of :attr:`rwlock`, so no query reads
        the delta buffer mid-mutation.  Listeners fire while the lock is
        still held — a cache invalidation is therefore ordered after every
        result cached under the pre-insert state.
        """
        # Validate the whole batch before touching the delta, so a bad
        # transaction cannot leave a partially applied (and unannounced) batch.
        inserted = [frozenset(transaction) for transaction in transactions]
        if any(not items for items in inserted):
            raise QueryError("cannot insert an empty transaction")
        with self.rwlock.write_locked():
            new_ids = list(range(self._next_id, self._next_id + len(inserted)))
            self._commit({"op": "insert", "ids": new_ids, "sets": inserted})
            if inserted:
                for listener in self._update_listeners:
                    listener(inserted)
            return new_ids

    def delete(self, record_ids: Iterable[int]) -> list[frozenset]:
        """Delete records by id; returns the deleted item sets (listener payload).

        A delete of a still-buffered record simply un-buffers it; a delete of
        a merged record adds a tombstone that every query path filters until
        the next :meth:`flush` rebuilds without it.  The whole batch is
        validated before any mutation, mirroring :meth:`insert`: an unknown or
        already-deleted id raises :class:`~repro.errors.QueryError` and leaves
        the index untouched.
        """
        with self.rwlock.write_locked():
            removed = self._commit({"op": "delete", "ids": list(record_ids)})
            if removed:
                for listener in self._update_listeners:
                    listener(removed)
            return removed

    def replay(self, frame: dict) -> None:
        """Re-apply one logged write under the ids it was acknowledged with.

        ``frame`` is ``{"op": "insert", "ids": [...], "sets": [...]}`` or
        ``{"op": "delete", "ids": [...]}`` — the write-ahead log's frame
        format.  Fires no listeners: every cached result the write affects
        was already invalidated when it was first acknowledged.
        """
        with self.rwlock.write_locked():
            self._commit(frame)

    def _commit(self, frame: dict) -> list[frozenset]:
        """Apply ``frame`` (caller holds the write side), journaling it for a rebuild."""
        removed = self._apply(frame)
        if self._journal is not None:
            self._journal.append(frame)
        return removed

    def _apply(self, frame: dict) -> list[frozenset]:
        """Apply one write frame to the delta and tombstones; returns deleted item sets."""
        if frame["op"] == "insert":
            for record_id, items in zip(frame["ids"], frame["sets"]):
                self.delta.add(Record(record_id, frozenset(items)))
                self._next_id = max(self._next_id, record_id + 1)
            return []
        ids = frame["ids"]
        seen: set[int] = set()
        for record_id in ids:
            if record_id in seen:
                raise QueryError(f"record {record_id} deleted twice in one batch")
            seen.add(record_id)
            in_delta = record_id in self.delta
            in_base = self.dataset.has_id(record_id) and record_id not in self._tombstones
            if not in_delta and not in_base:
                raise QueryError(f"cannot delete unknown record {record_id}")
        removed: list[frozenset] = []
        for record_id in ids:
            if record_id in self.delta:
                removed.append(self.delta.remove(record_id))
            else:
                self._tombstones.add(record_id)
                removed.append(self.dataset.get(record_id).items)
        return removed

    @property
    def pending_updates(self) -> int:
        """Records waiting to be merged: buffered inserts plus tombstones."""
        return len(self.delta) + len(self._tombstones)

    @property
    def pending_deletes(self) -> int:
        """Tombstoned base records awaiting the next merge."""
        return len(self._tombstones)

    @property
    def num_records(self) -> int:
        """Records a query can currently return (buffered adds minus deletes)."""
        return len(self.dataset) + len(self.delta) - len(self._tombstones)

    def live_dataset(self) -> Dataset:
        """Snapshot of the records a query can currently return.

        Base records minus tombstones, plus the buffered inserts — the
        dataset a rebuild must be built over to preserve every answer.
        """
        with self.rwlock.read_locked():
            records = [
                record
                for record in self.dataset
                if record.record_id not in self._tombstones
            ]
            records.extend(self.delta.records)
            return Dataset(records)

    def evaluate(self, expr) -> list[int]:
        """Answer a query expression over the disk index *and* the delta buffer."""
        return self.measured_evaluate(expr)[0]

    def flush(self) -> UpdateReport:
        """Merge the delta buffer into the disk index, exclusively.

        Holds the write side of :attr:`rwlock` for the whole merge (each
        wrapper's ``_flush_locked`` does the structure-specific work), so
        queries wait for it.  :meth:`rebuild` folds the delta in without
        that pause.
        """
        with self.rwlock.write_locked():
            return self._flush_locked()

    def _flush_locked(self) -> UpdateReport:
        raise NotImplementedError

    def _merge_by_build(self, merged_count: int, start: float) -> UpdateReport:
        """Flush by building over the live records (caller holds the write side)."""
        dataset = self.live_dataset()
        index = self._build(dataset)
        self._install(dataset, index)
        return self._report(merged_count, start, index.stats.snapshot())

    def _report(self, merged_count: int, start: float, io: IOSnapshot) -> UpdateReport:
        return UpdateReport(
            index_name=self.index.name,
            records_merged=merged_count,
            merge_seconds=time.perf_counter() - start,
            page_writes=io.page_writes,
            page_reads=io.page_reads,
        )

    def rebuild(self) -> None:
        """Rebuild the disk index over the live records, off the write lock.

        1. Under the read side of :attr:`rwlock` (writers excluded), snapshot
           :meth:`live_dataset` and start a journal of the writes to come.
        2. Build the fresh index over the snapshot with no lock held: queries
           keep reading the old index, writes keep landing in its delta and
           tombstones — and in the journal.
        3. Under the write side, install the fresh index and replay the
           journal into an empty delta.  Replayed records keep their
           acknowledged ids (the id counter never moved) and fire no
           listeners (each write invalidated its cache entries when acked).

        The journal lives only between snapshot and swap.  One rebuild runs
        at a time; a second waits for the first.
        """
        with self._rebuild_lock:
            with self.rwlock.read_locked():
                dataset = self.live_dataset()
                self._journal = []
            try:
                index = self._build(dataset)
            except BaseException:
                with self.rwlock.write_locked():
                    self._journal = None
                raise
            with self.rwlock.write_locked():
                journal, self._journal = self._journal, None
                self._install(dataset, index)
                for frame in journal:
                    self._apply(frame)

    def measured_evaluate(self, expr) -> "tuple[list[int], IOSnapshot]":
        """Answer ``expr`` over the disk index and the delta, plus its exact I/O.

        The disk index evaluates the expression through its planner/cursor
        machinery; the cursor's read context is charged with exactly this
        traversal, so the returned :class:`~repro.storage.stats.IOSnapshot`
        stays correct when many queries run concurrently on the same handle.
        The buffered records are merged in by :meth:`_merge_delta_and_slice`,
        memory resident and free of page cost, before any ``limit`` applies.
        """
        from repro.core.query.expr import Expr, split_limit

        if not isinstance(expr, Expr):
            raise QueryError(f"expected a query expression, got {expr!r}")
        with self.rwlock.read_locked():
            normalized, count, offset = split_limit(expr)
            cursor = self.index.execute(normalized)
            with trace.span("fetch", index=self.index.name):
                base = sorted(cursor.fetch_all())
            ids = self._merge_delta_and_slice(base, normalized, count, offset)
            return ids, cursor.io_delta()

    def _merge_delta_and_slice(
        self, base: list[int], normalized, count: "int | None", offset: int
    ) -> list[int]:
        """Union buffered delta matches into ``base`` (sorted), then slice.

        The single definition of the delta-visibility and limit-after-merge
        semantics; both the monolithic and the sharded evaluation paths go
        through it.
        """
        from repro.core.query.expr import slice_ids

        if self._tombstones:
            base = [rid for rid in base if rid not in self._tombstones]
        if len(self.delta):
            matches = normalized.matches
            fresh = sorted(rid for rid, items in self.delta.items() if matches(items))
            if fresh:
                # A record is either buffered or flushed, never both, so the
                # two sorted runs are disjoint; timsort merges them in one pass.
                base = sorted(base + fresh)
        return slice_ids(base, count, offset)


class UpdatableOIF(_UpdatableBase):
    """OIF with a delta buffer; the merge re-sorts and rebuilds the index.

    ``env_factory`` (optional) supplies the storage environment for the
    initial build *and* every flush rebuild.  The durability layer uses it to
    keep every generation of the index on catalog-enabled environments whose
    page images can be snapshotted verbatim; when omitted, each build gets a
    fresh in-memory environment made from ``oif_kwargs``.
    """

    def __init__(
        self,
        dataset: Dataset,
        *,
        env_factory: "Callable[[], Environment] | None" = None,
        **oif_kwargs,
    ) -> None:
        self._configure(env_factory=env_factory, **oif_kwargs)
        super().__init__(dataset, self._build(dataset))

    def _configure(
        self, *, env_factory: "Callable[[], Environment] | None" = None, **oif_kwargs
    ) -> None:
        self._env_factory = env_factory
        self._oif_kwargs = oif_kwargs

    def _build(self, dataset: Dataset) -> OrderedInvertedFile:
        env = self._env_factory() if self._env_factory is not None else None
        return OrderedInvertedFile(dataset, env=env, **self._oif_kwargs)

    def _flush_locked(self) -> UpdateReport:
        """Merge the delta into the OIF by rebuilding it over the merged data."""
        return self._merge_by_build(self.pending_updates, time.perf_counter())


def _shard_factory(
    env_factory: "Callable[[], Environment]", oif_kwargs: dict
) -> "Callable[[Dataset], OrderedInvertedFile]":
    """Shard builder that places every shard on an environment from the factory."""

    def build(shard_dataset: Dataset) -> OrderedInvertedFile:
        return OrderedInvertedFile(shard_dataset, env=env_factory(), **oif_kwargs)

    return build


class UpdatableShardedOIF(_UpdatableBase):
    """Sharded OIF with one delta buffer and independent shard flushes.

    :meth:`flush` hands the buffered records to
    :meth:`ShardedIndex.absorb`, which groups them by the index's
    deterministic partitioner and rebuilds *only the shards with pending
    records* — typically a fraction of the monolithic ``UpdatableOIF.flush``
    rebuild.  With ``max_workers`` (or a pool-sized default from the service
    layer) the affected shards rebuild concurrently.
    """

    def __init__(
        self,
        dataset: Dataset,
        num_shards: int = 4,
        *,
        strategy: str = "hash",
        max_workers: "int | None" = None,
        env_factory: "Callable[[], Environment] | None" = None,
        **oif_kwargs,
    ) -> None:
        if env_factory is not None:
            # A factory cannot be combined with OIF options; without one the
            # index records the options for the process backend's reopen.
            oif_kwargs = {"factory": _shard_factory(env_factory, oif_kwargs)}
        super().__init__(
            dataset,
            ShardedIndex(
                dataset,
                num_shards,
                strategy=strategy,
                max_workers=max_workers,
                **oif_kwargs,
            ),
        )

    def _build(self, dataset: Dataset) -> ShardedIndex:
        """Shards over ``dataset`` laid out like the current ones.

        The shard count, strategy, shard factory and build workers are read
        back from the current :class:`ShardedIndex`.
        """
        return self.index.rebuilt_over(dataset)

    @property
    def num_shards(self) -> int:
        return self.index.num_shards

    def pending_per_shard(self) -> list[int]:
        """Buffered record count per shard position (flush planning, /stats)."""
        counts = [0] * self.num_shards
        with self.rwlock.read_locked():
            for record in self.delta.records:
                counts[self.index.partitioner.shard_of(record.record_id)] += 1
        return counts

    def flush(self, max_workers: "int | None" = None) -> UpdateReport:
        """Merge the delta by rebuilding only the shards that own its records."""
        with self.rwlock.write_locked():
            merged_count = self.pending_updates
            start = time.perf_counter()
            report = self.index.absorb(
                self.delta.records,
                max_workers=max_workers,
                removed_ids=self._tombstones,
            )
            self._install(self.index.dataset, self.index)
            return self._report(merged_count, start, report.io)

    @property
    def process_pool(self):
        """The attached :class:`ShardProcessPool`, or ``None`` (delegated)."""
        return self.index.process_pool

    def attach_process_pool(self, pool) -> None:
        """Route shard fan-out through a multiprocess backend.

        Writes (``insert``/``delete``/``flush``) stay in the parent: the delta
        buffer is merged after the workers' base-shard results come home, and
        ``flush`` re-images the rebuilt shards into the pool automatically via
        :meth:`ShardedIndex.absorb`.  :meth:`rebuild` replaces every shard,
        so the pool stays with the old index; attach a new one afterwards.
        """
        self.index.attach_process_pool(pool)

    def detach_process_pool(self):
        """Detach and return the process pool (does not close it)."""
        return self.index.detach_process_pool()

    def evaluate_detail(self, expr):
        """Like :meth:`evaluate`, plus the per-shard cost breakdown.

        The shards are materialized through
        :meth:`ShardedIndex.fanout_evaluate` (on the calling thread, or in
        the attached process pool's workers); buffered delta records merge
        in with zero page cost and the top-level limit slices the combined,
        sorted stream — identical semantics to the base ``evaluate``.
        """
        from repro.core.query.expr import Expr, split_limit

        if not isinstance(expr, Expr):
            raise QueryError(f"evaluate_detail() needs a query expression, got {expr!r}")
        with self.rwlock.read_locked():
            normalized, count, offset = split_limit(expr)
            base, shard_stats = self.index.fanout_evaluate(normalized)
            return self._merge_delta_and_slice(base, normalized, count, offset), shard_stats


class UpdatableIF(_UpdatableBase):
    """Classic inverted file with a delta buffer; the merge appends to the lists."""

    def __init__(self, dataset: Dataset, **if_kwargs) -> None:
        self._configure(**if_kwargs)
        super().__init__(dataset, self._build(dataset))

    def _configure(self, **if_kwargs) -> None:
        self._if_kwargs = if_kwargs

    def _build(self, dataset: Dataset) -> InvertedFile:
        return InvertedFile(dataset, **self._if_kwargs)

    def _flush_locked(self) -> UpdateReport:
        """Merge the delta into the IF by appending postings to the lists.

        The merge rewrites list pages in place, which no concurrent reader
        may observe half-done — hence the base class's exclusive hold.
        """
        merged_count = self.pending_updates
        start = time.perf_counter()
        if self._tombstones:
            # Deletions cannot be merged by appending: the contiguous lists
            # still hold the dead postings.  Rebuild the whole IF over the
            # surviving records instead (the classic IF's compaction story).
            return self._merge_by_build(merged_count, start)
        fresh_records = self.delta.records
        before = self.index.stats.snapshot()
        self.index.merge_records(fresh_records)
        io = self.index.stats.since(before)
        self.dataset = Dataset(list(self.dataset) + fresh_records)
        self.index.dataset = self.dataset
        # The cached planner was built from the pre-merge frequency stats;
        # drop it so new items are not mistaken for maximally rare ones.
        self.index._planner = None
        self.delta.clear()
        return self._report(merged_count, start, io)
