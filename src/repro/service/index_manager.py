"""Resident index management for the query-serving subsystem.

A one-shot experiment rebuilds its index per run; a server cannot afford to.
:class:`IndexManager` keeps any number of *named*, memory-resident
:class:`~repro.core.interfaces.SetContainmentIndex` instances alive across
requests.  Each entry is guarded by a reader-writer lock: any number of
queries read one index handle concurrently (the storage engine is safe for
concurrent readers and charges each query through its own
:class:`~repro.storage.stats.ReadContext`), while inserts, delta flushes and
rebuild swaps take the exclusive write side.

Lifecycle:

* ``create`` builds an index of any registered kind (OIF, IF, unordered
  B-tree, signature file, naive scan) over a dataset; with a ``data_dir``
  configured, OIF indexes are additionally *persisted* — page images,
  manifest and a write-ahead log under ``data_dir/<name>/`` — so a restarted
  server reopens them in seconds instead of rebuilding from the dataset;
* ``insert``/``delete`` route updates through the delta-buffer machinery of
  :mod:`repro.core.updates` (OIF/IF only) and fire its update listeners, so
  the result cache drops exactly the affected entries; durable entries
  write-ahead-log every update before acking;
* ``checkpoint`` flushes a durable entry's deltas and publishes a new
  on-disk generation, truncating its WAL;
* ``open_resident`` brings every persisted index under ``data_dir`` back —
  no source dataset needed, crash-interrupted updates replayed from the WAL;
* ``rebuild`` asks the handle to rebuild itself
  (:meth:`repro.core.updates._UpdatableBase.rebuild`): the fresh index is
  built *outside* any lock while queries keep being served from the old one
  and writes keep landing, then swapped in under the handle's write lock;
* ``drop`` evicts the index, flushes its cache entries and (for durable
  entries) deletes its on-disk directory.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Iterable, Iterator

from repro.baselines.naive import NaiveScanIndex
from repro.baselines.signature_file import SignatureFile
from repro.baselines.unordered_btree import UnorderedBTreeInvertedFile
from repro.concurrency import ReadWriteLock
from repro.core.interfaces import SetContainmentIndex
from repro.core.items import Item
from repro.core.records import Dataset
from repro.core.shard import ShardQueryStat
from repro.core.updates import (
    UpdatableIF,
    UpdatableOIF,
    UpdatableShardedOIF,
    UpdateReport,
)
from repro.durability import (
    MANIFEST_NAME,
    DurableIndex,
    durable_env_factory,
    open_index,
    persist,
)
from repro.errors import ServiceError, UnknownIndexError
from repro.obs import trace as obs_trace
from repro.service.cache import ResultCache
from repro.storage.pager import DEFAULT_PAGE_SIZE
from repro.storage.kvstore import PAPER_CACHE_BYTES
from repro.storage.stats import IOSnapshot

#: Index kinds the manager can build.  ``oif`` and ``if`` are updatable (they
#: wrap the delta-buffer machinery); the rest are static baselines.
INDEX_KINDS = ("oif", "if", "ubt", "sig", "naive")

_STATIC_CLASSES = {
    "ubt": UnorderedBTreeInvertedFile,
    "sig": SignatureFile,
    "naive": NaiveScanIndex,
}

#: How sharded entries fan queries out: ``threads`` runs the shards in
#: process, on the querying thread (exact but GIL-bound); ``processes`` runs
#: them in a persistent worker-process pool owned by the sharded handle (see
#: :class:`repro.core.updates.UpdatableShardedOIF`).
SHARD_BACKENDS = ("threads", "processes")


def _unwrap(handle):
    """Strip the durability facade for type dispatch on the inner handle."""
    return handle.inner if isinstance(handle, DurableIndex) else handle


class ManagedIndex:
    """One named, resident index plus the reader-writer lock guarding it.

    Queries hold the read side of :attr:`lock` and run concurrently — the
    buffer pool below is thread-safe and every query carries its own read
    context, so the per-query page counts stay exact under interleaving.
    Inserts, flushes, the drop flag and static-kind rebuild swaps take the
    write side; an updatable handle swaps a rebuilt index under its own lock.
    """

    def __init__(
        self,
        name: str,
        kind: str,
        dataset: Dataset,
        *,
        catalog_envs: bool = False,
        handle=None,
        processes: bool = False,
        **options,
    ) -> None:
        if kind not in INDEX_KINDS:
            raise ServiceError(
                f"unknown index kind {kind!r}; expected one of {list(INDEX_KINDS)}"
            )
        self.name = name
        self.kind = kind
        self.options = dict(options)
        #: Build (or build-and-flush-rebuild) on catalog-enabled storage
        #: environments, the prerequisite for persisting the page images.
        self.catalog_envs = catalog_envs or handle is not None
        #: Reader-writer guard: shared for queries, exclusive for mutation.
        self.lock = ReadWriteLock()
        #: Serializes rebuilds; queries proceed under :attr:`lock`.
        self.rebuild_lock = threading.Lock()
        #: Set (under the write lock) when the index is evicted, so an
        #: in-flight evaluation cannot re-populate the result cache after
        #: the drop already invalidated the index's entries.
        self.dropped = False
        start = time.perf_counter()
        # ``handle`` adopts an already-opened index (the ``open_resident``
        # path): no build happens.  ``processes`` reaches only a sharded
        # build, whose handle then runs its shards in worker processes.
        self._handle = (
            handle if handle is not None else self._build_handle(dataset, processes)
        )
        self.build_seconds = time.perf_counter() - start

    def _build_handle(self, dataset: Dataset, processes: bool = False):
        options = dict(self.options)
        shards = options.pop("shards", None)
        build_workers = options.pop("build_workers", None)
        for option_name, value in (("shards", shards), ("build_workers", build_workers)):
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, int) or value < 1
            ):
                raise ServiceError(
                    f"{option_name!r} must be a positive integer, got {value!r}"
                )
        sharded = bool(shards and shards > 1)
        if sharded and self.kind != "oif":
            raise ServiceError(
                f"sharding is only supported for kind 'oif', not {self.kind!r}"
            )
        if not sharded:
            # Silently building a monolithic index would ignore the client's
            # partitioning request — fail loudly instead.
            if "strategy" in options:
                raise ServiceError("the 'strategy' option requires 'shards' > 1")
            if build_workers is not None:
                raise ServiceError("the 'build_workers' option requires 'shards' > 1")
        if self.kind == "oif":
            env_factory = None
            if self.catalog_envs:
                page_size = options.get("page_size", DEFAULT_PAGE_SIZE)
                cache_bytes = options.get("cache_bytes", PAPER_CACHE_BYTES)
                env_factory = durable_env_factory(page_size, cache_bytes)
            if sharded:
                # Shard builds (and later rebuilds / flushes) run
                # concurrently; by default one worker per shard.
                return UpdatableShardedOIF(
                    dataset,
                    shards,
                    max_workers=build_workers or shards,
                    env_factory=env_factory,
                    processes=processes,
                    **options,
                )
            return UpdatableOIF(dataset, env_factory=env_factory, **options)
        if self.kind == "if":
            return UpdatableIF(dataset, **options)
        return _STATIC_CLASSES[self.kind](dataset, **options)

    def make_durable(
        self,
        directory: str,
        *,
        fsync: str = "always",
        seed: "int | None" = None,
        dataset_config: "dict | None" = None,
    ) -> None:
        """Persist the freshly built handle under ``directory`` (generation 0).

        From here on every acked update is write-ahead-logged and
        :meth:`checkpoint` publishes new generations.  Requires the entry to
        have been built with ``catalog_envs=True``.
        """
        if self.kind != "oif":
            raise ServiceError(
                f"durability is only supported for kind 'oif', not {self.kind!r}"
            )
        persist_options = {
            key: value for key, value in self.options.items()
            if key not in ("shards", "strategy", "build_workers")
        }
        with self.lock.write_locked():
            self._handle = persist(
                directory,
                self._handle,
                options=persist_options,
                fsync=fsync,
                seed=seed,
                dataset_config=dataset_config,
            )

    # -- introspection ---------------------------------------------------------------

    @property
    def supports_updates(self) -> bool:
        return self.kind in ("oif", "if")

    @property
    def is_durable(self) -> bool:
        """True when the entry persists updates to disk (WAL + checkpoints)."""
        return isinstance(self._handle, DurableIndex)

    @property
    def index(self) -> SetContainmentIndex:
        """The underlying disk-resident index (excluding any delta buffer)."""
        if self.supports_updates:
            return self._handle.index
        return self._handle

    @property
    def num_records(self) -> int:
        """Records a query can currently return (buffered adds minus deletes)."""
        with self.lock.read_locked():
            if self.supports_updates:
                return self._handle.num_records
            return len(self._handle.dataset)

    @property
    def pending_updates(self) -> int:
        with self.lock.read_locked():
            return self._handle.pending_updates if self.supports_updates else 0

    def describe(self) -> dict:
        """JSON-friendly summary for the ``/indexes`` endpoint."""
        with self.lock.read_locked():
            out = {
                "name": self.name,
                "kind": self.kind,
                "index": self.index.name,
                "records": self.num_records,
                "pending_updates": self.pending_updates,
                "size_bytes": self.index.index_size_bytes,
                "build_seconds": round(self.build_seconds, 4),
                "supports_updates": self.supports_updates,
            }
            if isinstance(_unwrap(self._handle), UpdatableShardedOIF):
                out["shards"] = self._handle.num_shards
                out["shard_records"] = self._handle.index.shard_record_counts()
                out["pending_per_shard"] = self._handle.pending_per_shard()
                out["shard_backend"] = (
                    "threads" if self._handle.index.process_pool is None else "processes"
                )
            if self.is_durable:
                store = self._handle.store
                out["durable"] = True
                out["generation"] = store.generation
                out["checkpoint_age_seconds"] = round(store.checkpoint_age_seconds(), 3)
                out["wal_bytes"] = sum(wal.size_bytes for wal in store._wals)
            return out

    # -- serving operations ----------------------------------------------------------

    def evaluate(self, expr) -> list[int]:
        """Answer one query expression (delta-aware for updatable kinds)."""
        with self.lock.read_locked():
            return self._handle.evaluate(expr)

    def measured_expr(
        self, expr
    ) -> "tuple[tuple[int, ...], IOSnapshot, tuple[ShardQueryStat, ...] | None]":
        """Answer an expression: ``(record_ids, io_delta, shard_stats)``.

        ``io_delta`` is the exact I/O of this query, read from the
        traversal's own context(s) — page, random and sequential read counts
        stay correct when many queries interleave on this handle.
        ``shard_stats`` is the per-shard breakdown for sharded handles,
        ``None`` otherwise.

        Holds only the *read* side of the entry lock, so any number of
        queries evaluate concurrently.  Sharded handles evaluate their shards
        one after another on the calling thread, or in the handle's worker
        processes.
        """
        with self.lock.read_locked():
            if isinstance(_unwrap(self._handle), UpdatableShardedOIF):
                record_ids, shard_stats = self._handle.evaluate_detail(expr)
                delta = IOSnapshot(
                    page_reads=sum(stat.page_accesses for stat in shard_stats),
                    random_reads=sum(stat.random_reads for stat in shard_stats),
                    sequential_reads=sum(stat.sequential_reads for stat in shard_stats),
                    decoded_hits=sum(stat.decoded_hits for stat in shard_stats),
                    decoded_misses=sum(stat.decoded_misses for stat in shard_stats),
                )
                return tuple(record_ids), delta, tuple(shard_stats)
            if self.supports_updates:
                record_ids, delta = self._handle.measured_evaluate(expr)
                return tuple(record_ids), delta, None
            result = self._handle.measured_execute(expr)
            delta = IOSnapshot(
                page_reads=result.page_accesses,
                random_reads=result.random_reads,
                sequential_reads=result.sequential_reads,
                decoded_hits=result.decoded_hits,
                decoded_misses=result.decoded_misses,
            )
            return result.record_ids, delta, None

    def close(self) -> None:
        """Release per-entry resources.

        Durable entries own open WAL file handles through their store, and a
        process-backed sharded handle owns its worker pool; the handle's
        ``close`` releases both.  Static kinds own nothing.
        """
        if self.supports_updates:
            self._handle.close()

    def insert(self, transactions: Iterable[Iterable[Item]]) -> list[int]:
        """Buffer new records (updatable kinds only); fires update listeners."""
        if not self.supports_updates:
            raise ServiceError(
                f"index {self.name!r} (kind {self.kind!r}) does not support updates"
            )
        materialized = [frozenset(transaction) for transaction in transactions]
        with self.lock.write_locked():
            if self.dropped:
                # Mirrors the query-path guard: a write racing a drop must
                # fail loudly, not be acknowledged into a discarded handle.
                raise UnknownIndexError(f"no index named {self.name!r}")
            return self._handle.insert(materialized)

    def delete(self, record_ids: Iterable[int]) -> list:
        """Delete records by id (updatable kinds only); fires update listeners."""
        if not self.supports_updates:
            raise ServiceError(
                f"index {self.name!r} (kind {self.kind!r}) does not support updates"
            )
        ids = list(record_ids)
        with self.lock.write_locked():
            if self.dropped:
                raise UnknownIndexError(f"no index named {self.name!r}")
            return self._handle.delete(ids)

    def checkpoint(self, force: bool = False) -> dict:
        """Flush deltas and publish a new on-disk generation (durable only)."""
        if not self.is_durable:
            raise ServiceError(f"index {self.name!r} is not durable")
        with self.lock.write_locked():
            if self.dropped:
                raise UnknownIndexError(f"no index named {self.name!r}")
            return self._handle.checkpoint(force=force)

    def flush(self) -> "UpdateReport | None":
        """Merge the delta buffer into the disk index (no-op for static kinds)."""
        if not self.supports_updates:
            return None
        with self.lock.write_locked():
            if self.dropped:
                raise UnknownIndexError(f"no index named {self.name!r}")
            if not self._handle.pending_updates:
                return None
            return self._handle.flush()

    def add_update_listener(self, listener) -> None:
        """Register a callback fired with the item-sets of each write batch.

        The callback rides on the handle's own listener hook
        (:meth:`repro.core.updates._UpdatableBase.add_update_listener`);
        a rebuild keeps the handle, so it keeps the callback too.  Static
        kinds never fire it.
        """
        if self.supports_updates:
            self._handle.add_update_listener(listener)

    def rebuild(self) -> None:
        """Rebuild the index over its live records and swap it in.

        Updatable kinds rebuild inside their handle, which keeps its
        identity, WAL and listeners while only its index and dataset change;
        static kinds are rebuilt over their dataset and swapped under the
        write lock.  Cached results stay valid: every record keeps its id,
        so the swap changes the physical layout but no query answer.
        """
        with self.rebuild_lock:
            start = time.perf_counter()
            if self.supports_updates:
                self._handle.rebuild()
            else:
                fresh = self._build_handle(self._handle.dataset)
                with self.lock.write_locked():
                    self._handle = fresh
            self.build_seconds = time.perf_counter() - start


class IndexManager:
    """Registry of named resident indexes with lifecycle operations.

    With a ``data_dir``, every OIF index the manager creates is persisted
    under ``data_dir/<name>/`` (page images + manifest + WAL) and
    :meth:`open_resident` brings the whole catalog of persisted indexes back
    after a restart — including updates that were acked but never
    checkpointed, replayed from the WALs.
    """

    def __init__(
        self,
        result_cache: "ResultCache | None" = None,
        data_dir: "str | None" = None,
        fsync: str = "always",
        shard_backend: str = "threads",
    ) -> None:
        if shard_backend not in SHARD_BACKENDS:
            raise ServiceError(
                f"unknown shard_backend {shard_backend!r}; "
                f"expected one of {list(SHARD_BACKENDS)}"
            )
        self.result_cache = result_cache
        self.data_dir = data_dir
        self.fsync = fsync
        #: Fan-out backend of every sharded entry, created or recovered;
        #: unsharded entries always run in process.
        self.shard_backend = shard_backend
        self._indexes: dict[str, ManagedIndex] = {}
        self._registry_lock = threading.RLock()

    def __len__(self) -> int:
        with self._registry_lock:
            return sum(1 for entry in self._indexes.values() if entry is not None)

    def __contains__(self, name: str) -> bool:
        with self._registry_lock:
            return self._indexes.get(name) is not None

    def __iter__(self) -> Iterator[ManagedIndex]:
        with self._registry_lock:
            return iter([entry for entry in self._indexes.values() if entry is not None])

    def names(self) -> list[str]:
        with self._registry_lock:
            return sorted(name for name, entry in self._indexes.items() if entry is not None)

    def describe(self) -> list[dict]:
        # Iterate a snapshot of the live entries rather than name-then-get,
        # so a concurrent drop cannot make this read-only path raise.
        return [entry.describe() for entry in sorted(self, key=lambda e: e.name)]

    # -- lifecycle -------------------------------------------------------------------

    def create(
        self,
        name: str,
        dataset: Dataset,
        kind: str = "oif",
        dataset_config: "dict | None" = None,
        **options,
    ) -> ManagedIndex:
        """Build an index over ``dataset`` and register it under ``name``.

        With a ``data_dir`` configured, ``oif`` indexes are built on
        catalog-enabled environments and persisted to ``data_dir/<name>/``
        before the entry is registered; ``dataset_config`` (if given) is
        recorded in the manifest as provenance.
        """
        with self._registry_lock:
            if name in self._indexes:
                raise ServiceError(f"an index named {name!r} already exists")
            # Reserve the name so concurrent creates fail fast; the (slow)
            # build below runs without blocking access to other indexes.
            self._indexes[name] = None  # type: ignore[assignment]
        durable = self.data_dir is not None and kind == "oif"
        entry = None
        try:
            entry = ManagedIndex(
                name,
                kind,
                dataset,
                catalog_envs=durable,
                processes=self.shard_backend == "processes",
                **options,
            )
            if durable:
                entry.make_durable(
                    os.path.join(self.data_dir, name),
                    fsync=self.fsync,
                    dataset_config=dataset_config,
                )
        except BaseException:
            if entry is not None:
                entry.close()
            with self._registry_lock:
                self._indexes.pop(name, None)
            raise
        self._register(name, entry)
        return entry

    def _register(self, name: str, entry: ManagedIndex) -> None:
        def _invalidate(item_sets: list[frozenset]) -> None:
            # Resolve the cache at fire time, so wiring a cache into the
            # manager after indexes were created still invalidates correctly.
            cache = self.result_cache
            if cache is not None:
                cache.invalidate_items(name, item_sets)

        entry.add_update_listener(_invalidate)
        with self._registry_lock:
            self._indexes[name] = entry

    def open_resident(self) -> list[dict]:
        """Reopen every persisted index under ``data_dir``; returns stats.

        Each subdirectory holding a manifest is opened without its source
        dataset — pages are loaded, the OIF state rebuilt and any updates
        acked after the last checkpoint replayed from the WALs.  Returns one
        stats dict per recovered index (name, generation, records, WAL
        records replayed, torn bytes truncated, open seconds).
        """
        if self.data_dir is None:
            return []
        recovered: list[dict] = []
        try:
            names = sorted(os.listdir(self.data_dir))
        except FileNotFoundError:
            return []
        for name in names:
            directory = os.path.join(self.data_dir, name)
            if not os.path.isfile(os.path.join(directory, MANIFEST_NAME)):
                continue
            with self._registry_lock:
                if name in self._indexes:
                    raise ServiceError(
                        f"an index named {name!r} already exists; cannot recover "
                        f"{directory!r} over it"
                    )
            with obs_trace.span("index.recover", index=name):
                start = time.perf_counter()
                durable = open_index(
                    directory,
                    fsync=self.fsync,
                    processes=self.shard_backend == "processes",
                )
                store = durable.store
                options = store.options
                if store.kind == "sharded-oif":
                    options["shards"] = store.manifest["shards"]
                    if store.manifest.get("strategy", "hash") != "hash":
                        options["strategy"] = store.manifest["strategy"]
                entry = ManagedIndex(
                    name, "oif", durable.dataset, handle=durable, **options
                )
                self._register(name, entry)
                recovered.append(
                    {
                        "name": name,
                        "generation": store.generation,
                        "records": entry.num_records,
                        "wal_records_replayed": store.replayed_records,
                        "torn_bytes_truncated": store.torn_bytes_truncated,
                        "open_seconds": round(time.perf_counter() - start, 4),
                    }
                )
        return recovered

    def checkpoint(self, name: str, force: bool = False) -> dict:
        """Checkpoint one durable index (flush deltas, publish a generation)."""
        return self.get(name).checkpoint(force=force)

    def get(self, name: str) -> ManagedIndex:
        with self._registry_lock:
            entry = self._indexes.get(name)
        if entry is None:
            raise UnknownIndexError(f"no index named {name!r}")
        return entry

    def drop(self, name: str) -> None:
        """Evict an index and invalidate its cached results."""
        with self._registry_lock:
            entry = self._indexes.get(name)
            if entry is None:
                # Covers both a genuinely unknown name and the None
                # reservation of an in-flight create — which must stay in
                # place, or a concurrent create could register the same name
                # twice and one index would be silently clobbered.
                raise UnknownIndexError(f"no index named {name!r}")
            del self._indexes[name]
        # Mark the entry dead under the exclusive lock *before* invalidating:
        # acquiring it drains every in-flight read (they finish and cache
        # first), and any later evaluation sees the flag and refuses to
        # cache stale results under a name that may be reused.
        with entry.lock.write_locked():
            entry.dropped = True
        entry.close()
        if entry.is_durable:
            # Dropping a durable index removes its on-disk directory too —
            # a restart must not resurrect an index the client evicted.
            entry._handle.store.destroy()
        if self.result_cache is not None:
            self.result_cache.invalidate_index(name)

    def rebuild(self, name: str) -> ManagedIndex:
        """Rebuild ``name`` over its live records (see :meth:`ManagedIndex.rebuild`).

        The expensive build happens outside every lock, so readers keep
        hitting the old index and writes keep landing while it runs; the
        handle replays those writes into its fresh delta when it swaps.
        """
        entry = self.get(name)
        entry.rebuild()
        return entry

    # -- updates ---------------------------------------------------------------------

    def insert(self, name: str, transactions: Iterable[Iterable[Item]]) -> list[int]:
        """Insert into one index; affected result-cache entries are dropped."""
        return self.get(name).insert(transactions)

    def flush(self, name: str) -> "UpdateReport | None":
        return self.get(name).flush()

    # -- lifecycle of the manager itself ----------------------------------------------

    def close(self, checkpoint: bool = True) -> None:
        """Release per-entry resources; checkpoint durable entries first.

        A clean shutdown checkpoints every durable index so the next open is
        a pure page load with an empty WAL; pass ``checkpoint=False`` to
        skip that (crash-simulation paths).
        """
        for entry in self:
            if checkpoint and entry.is_durable and not entry.dropped:
                try:
                    entry.checkpoint()
                except ServiceError:
                    pass
            entry.close()
