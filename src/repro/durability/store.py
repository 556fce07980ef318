"""Generation-based index persistence and the durable update facade.

Directory layout (monolithic OIF)::

    <dir>/manifest.json        commit point: names the live generation
    <dir>/pages-<gen>.db       verbatim page image of the storage environment
    <dir>/state-<gen>.json     Python-side OIF state (order, forms, id maps)
    <dir>/wal.log              CRC-framed updates since the last checkpoint

Sharded indexes add one subdirectory per shard position, each with its own
page image, state file, manifest and WAL (``shard-03/wal.log``); the
top-level manifest carries the shard count, strategy and which positions are
populated.  LSNs are allocated from a single store-wide counter, so merging
the per-shard logs by LSN reproduces the exact update order.

Checkpoint protocol (all steps crash-safe):

1. write + fsync the next generation's page images and state files;
2. atomically replace ``manifest.json`` (the *commit point*) — a crash
   before this step leaves the old generation live, with the WAL intact;
3. truncate the WALs and delete the previous generation's files.  A crash
   between 2 and 3 is harmless: the manifest's ``checkpoint_lsn`` makes
   replay idempotent (frames at or below it are skipped), and stale
   generation files are swept on the next open.
"""

from __future__ import annotations

import json
import os
import re
import time
from typing import Iterable

from repro.core.oif import OrderedInvertedFile
from repro.core.records import Dataset, Record
from repro.core.shard import ShardedIndex
from repro.core.updates import UpdatableOIF, UpdatableShardedOIF, _UpdatableBase
from repro.durability.manifest import read_manifest, write_manifest
from repro.durability.state import (
    copy_environment,
    dump_state,
    load_environment,
    load_oif,
)
from repro.durability.wal import WriteAheadLog
from repro.errors import DurabilityError, QueryError
from repro.storage.kvstore import Environment

_GENERATION_FILE = re.compile(r"^(pages|state)-(\d+)\.(db|json)$")

KIND_OIF = "oif"
KIND_SHARDED = "sharded-oif"


def durable_env_factory(page_size: int, cache_bytes: int):
    """Environment factory for durable handles: catalog-enabled, memory-resident.

    Every build and flush-rebuild of a durable index must land on an
    environment whose page 0 is a table catalog, so its page image can be
    snapshotted verbatim and reopened — with identical page ids, which keeps
    the paper's page-access accounting equal across a save/load cycle.
    """

    def factory() -> Environment:
        return Environment(page_size=page_size, cache_bytes=cache_bytes, catalog=True)

    return factory


def _shard_dir(directory: str, position: int) -> str:
    return os.path.join(directory, f"shard-{position:02d}")


def _write_state_file(path: str, state: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(state, handle, separators=(",", ":"), sort_keys=True)
        handle.flush()
        os.fsync(handle.fileno())


def _sweep_stale_generations(directory: str, keep: int) -> None:
    """Remove generation files other than ``keep`` (orphans from crashes)."""
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return
    for name in names:
        match = _GENERATION_FILE.match(name)
        if match and int(match.group(2)) != keep:
            os.remove(os.path.join(directory, name))


def _check_options(options: dict) -> dict:
    for key, value in options.items():
        if value is not None and not isinstance(value, (str, int, float, bool)):
            raise DurabilityError(
                f"index option {key}={value!r} is not JSON-representable and "
                "cannot be persisted"
            )
    return dict(options)


class IndexStore:
    """Owns one persisted index directory: manifest, generations and WALs."""

    def __init__(self, directory: str, manifest: dict, fsync: str) -> None:
        self.directory = directory
        self.manifest = manifest
        self.fsync = fsync
        self._wals: list[WriteAheadLog] = []
        if self.kind == KIND_SHARDED:
            for position in range(self.manifest["shards"]):
                shard_dir = _shard_dir(directory, position)
                os.makedirs(shard_dir, exist_ok=True)
                self._wals.append(
                    WriteAheadLog(os.path.join(shard_dir, "wal.log"), fsync=fsync)
                )
        else:
            self._wals.append(
                WriteAheadLog(os.path.join(directory, "wal.log"), fsync=fsync)
            )
        self._next_lsn = self.checkpoint_lsn + 1
        self.replayed_records = 0
        self.torn_bytes_truncated = 0
        self.last_checkpoint_time = float(manifest.get("checkpointed_at", time.time()))

    # -- manifest-backed accessors ---------------------------------------------------

    @property
    def kind(self) -> str:
        return self.manifest["kind"]

    @property
    def generation(self) -> int:
        return self.manifest["generation"]

    @property
    def checkpoint_lsn(self) -> int:
        return self.manifest["checkpoint_lsn"]

    @property
    def page_size(self) -> int:
        return self.manifest["page_size"]

    @property
    def cache_bytes(self) -> int:
        return self.manifest["cache_bytes"]

    @property
    def options(self) -> dict:
        return dict(self.manifest.get("options", {}))

    @property
    def last_lsn(self) -> int:
        """LSN of the most recently appended frame (= checkpoint_lsn when clean)."""
        return self._next_lsn - 1

    def needs_checkpoint(self) -> bool:
        """True when the WAL holds frames the manifest's generation lacks."""
        return self.last_lsn > self.checkpoint_lsn

    def checkpoint_age_seconds(self) -> float:
        return max(0.0, time.time() - self.last_checkpoint_time)

    # -- WAL append (caller holds the handle's write lock) ----------------------------

    def _route(self, handle: _UpdatableBase, record_id: int) -> int:
        if self.kind == KIND_SHARDED:
            return handle.index.partitioner.shard_of(record_id)
        return 0

    def log_insert(
        self, handle: _UpdatableBase, ids: list, sets: "list[frozenset]"
    ) -> None:
        """Append one insert transaction (split per owning shard) to the WAL."""
        groups: dict[int, tuple[list, list]] = {}
        for record_id, items in zip(ids, sets):
            bucket = groups.setdefault(self._route(handle, record_id), ([], []))
            bucket[0].append(record_id)
            bucket[1].append(sorted(items, key=str))
        for position in sorted(groups):
            group_ids, group_sets = groups[position]
            self._wals[position].append(
                {
                    "op": "insert",
                    "lsn": self._next_lsn,
                    "ids": group_ids,
                    "sets": group_sets,
                }
            )
            self._next_lsn += 1

    def log_delete(self, handle: _UpdatableBase, ids: list) -> None:
        """Append one delete transaction (split per owning shard) to the WAL."""
        groups: dict[int, list] = {}
        for record_id in ids:
            groups.setdefault(self._route(handle, record_id), []).append(record_id)
        for position in sorted(groups):
            self._wals[position].append(
                {"op": "delete", "lsn": self._next_lsn, "ids": groups[position]}
            )
            self._next_lsn += 1

    # -- recovery ---------------------------------------------------------------------

    def replay_into(self, handle: _UpdatableBase) -> int:
        """Apply every WAL frame newer than the checkpoint; returns the count.

        Frames across the per-shard logs are merged by LSN, reproducing the
        original update order exactly; frames at or below ``checkpoint_lsn``
        are skipped (they are already inside the checkpointed pages), which
        makes recovery idempotent when a crash interrupted WAL truncation.
        """
        frames = []
        for wal in self._wals:
            scan = wal.recover()
            self.torn_bytes_truncated += scan.truncated_bytes
            frames.extend(scan.records)
        frames.sort(key=lambda frame: frame["lsn"])
        replayed = 0
        for frame in frames:
            if frame["lsn"] <= self.checkpoint_lsn:
                continue
            if frame.get("op") not in ("insert", "delete"):
                raise DurabilityError(f"WAL frame has unknown operation {frame.get('op')!r}")
            handle.replay(frame)
            self._next_lsn = max(self._next_lsn, frame["lsn"] + 1)
            replayed += 1
        self.replayed_records = replayed
        return replayed

    # -- checkpoint -------------------------------------------------------------------

    def checkpoint(self, handle: _UpdatableBase) -> dict:
        """Publish the handle's current pages as the next generation.

        The caller holds the handle's write lock and has flushed pending
        deltas, so the page images are complete.  See the module docstring
        for the crash-safety argument of each step.
        """
        generation = self.generation + 1
        pages_written, positions = self._write_generation(handle, generation)
        payload = {
            "kind": self.kind,
            "generation": generation,
            "page_size": self.page_size,
            "cache_bytes": self.cache_bytes,
            "checkpoint_lsn": self.last_lsn,
            "next_id": handle._next_id,
            "num_records": len(handle.dataset),
            "fsync": self.fsync,
            "options": self.options,
            "checkpointed_at": time.time(),
        }
        if self.kind == KIND_SHARDED:
            payload["shards"] = self.manifest["shards"]
            payload["strategy"] = self.manifest["strategy"]
            payload["shard_positions"] = positions
        for key in ("seed", "dataset"):
            if key in self.manifest:
                payload[key] = self.manifest[key]
        write_manifest(self.directory, payload)
        self.manifest.update(payload)
        for wal in self._wals:
            wal.reset()
        _sweep_stale_generations(self.directory, keep=generation)
        if self.kind == KIND_SHARDED:
            for position in range(self.manifest["shards"]):
                _sweep_stale_generations(_shard_dir(self.directory, position), keep=generation)
        self.last_checkpoint_time = payload["checkpointed_at"]
        return {
            "generation": generation,
            "pages_written": pages_written,
            "checkpoint_lsn": self.last_lsn,
            "records": len(handle.dataset),
        }

    def _write_generation(self, handle: _UpdatableBase, generation: int):
        if self.kind == KIND_SHARDED:
            positions = []
            pages_written = 0
            for position in range(self.manifest["shards"]):
                shard = handle.index.shard_at(position)
                if shard is None:
                    continue
                shard_dir = _shard_dir(self.directory, position)
                os.makedirs(shard_dir, exist_ok=True)
                pages_written += copy_environment(
                    shard.env, os.path.join(shard_dir, f"pages-{generation}.db")
                )
                _write_state_file(
                    os.path.join(shard_dir, f"state-{generation}.json"),
                    dump_state(shard, self.options),
                )
                write_manifest(
                    shard_dir,
                    {
                        "kind": KIND_OIF,
                        "shard_position": position,
                        "generation": generation,
                        "page_size": self.page_size,
                        "cache_bytes": self.cache_bytes,
                        "checkpoint_lsn": self.last_lsn,
                        "next_id": handle._next_id,
                        "options": self.options,
                    },
                )
                positions.append(position)
            return pages_written, positions
        pages_written = copy_environment(
            handle.index.env, os.path.join(self.directory, f"pages-{generation}.db")
        )
        _write_state_file(
            os.path.join(self.directory, f"state-{generation}.json"),
            dump_state(handle.index, self.options),
        )
        return pages_written, []

    def close(self) -> None:
        for wal in self._wals:
            wal.close()

    def destroy(self) -> None:
        """Close and delete the whole persisted directory (index drop)."""
        self.close()
        for root, _dirs, files in os.walk(self.directory, topdown=False):
            for name in files:
                os.remove(os.path.join(root, name))
            os.rmdir(root)


class DurableIndex:
    """Updatable-index facade that write-ahead-logs every acked update.

    Wraps an :class:`~repro.core.updates.UpdatableOIF` (or its sharded
    sibling) plus an :class:`IndexStore`.  Queries, flushes, rebuilds and
    everything else delegate to the wrapped handle; ``insert``/``delete``
    additionally append to the WAL *before returning*, so an acknowledged
    update survives a crash, and :meth:`checkpoint` publishes a new
    generation and truncates the log.  The wrapped handle never changes: a
    rebuild swaps the index inside it and keeps its logical contents, so the
    WAL and manifest stay a faithful recipe for the live state.
    """

    def __init__(self, inner: _UpdatableBase, store: IndexStore) -> None:
        self._inner = inner
        self.store = store

    @property
    def inner(self) -> _UpdatableBase:
        """The wrapped updatable handle (for type dispatch in the service layer)."""
        return self._inner

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def insert(self, transactions: "Iterable[Iterable]") -> list:
        """Log, then apply, one insert batch; acked only once both are done.

        The ids are pre-assigned from the handle's counter under the write
        lock, logged, and then the in-memory apply must hand out exactly the
        same ids — the invariant WAL replay relies on.
        """
        sets = [frozenset(transaction) for transaction in transactions]
        if any(not items for items in sets):
            raise QueryError("cannot insert an empty transaction")
        with self._inner.rwlock.write_locked():
            ids = list(range(self._inner._next_id, self._inner._next_id + len(sets)))
            self.store.log_insert(self._inner, ids, sets)
            applied = self._inner.insert(sets)
            if applied != ids:
                raise DurabilityError(
                    f"WAL logged ids {ids} but the in-memory apply assigned {applied}"
                )
            return ids

    def delete(self, record_ids: "Iterable[int]") -> "list[frozenset]":
        """Apply (validating), then log, one delete batch."""
        ids = list(record_ids)
        with self._inner.rwlock.write_locked():
            removed = self._inner.delete(ids)
            self.store.log_delete(self._inner, ids)
            return removed

    def checkpoint(self, force: bool = False) -> dict:
        """Flush pending deltas and publish a new on-disk generation.

        A no-op (reported with ``"skipped": True``) when nothing changed
        since the last checkpoint, unless ``force`` is set.
        """
        with self._inner.rwlock.write_locked():
            if (
                not force
                and not self.store.needs_checkpoint()
                and not self._inner.pending_updates
            ):
                return {
                    "generation": self.store.generation,
                    "checkpoint_lsn": self.store.checkpoint_lsn,
                    "records": len(self._inner.dataset),
                    "skipped": True,
                }
            if self._inner.pending_updates:
                self._inner.flush()
            return self.store.checkpoint(self._inner)

    def close(self) -> None:
        """Release the WAL file handles and whatever the wrapped handle owns."""
        self._inner.close()
        self.store.close()


def persist(
    directory: str,
    handle: _UpdatableBase,
    *,
    options: "dict | None" = None,
    strategy: "str | None" = None,
    fsync: str = "always",
    seed: "int | None" = None,
    dataset_config: "dict | None" = None,
) -> DurableIndex:
    """Make a freshly built updatable index durable under ``directory``.

    Writes generation 0 (page images + state), the manifest and empty WALs.
    The handle must have been built over catalog-enabled environments (use
    :func:`durable_env_factory` / the ``env_factory`` constructor argument),
    otherwise its page images would not be reopenable.
    """
    if isinstance(handle, DurableIndex):
        raise DurabilityError("the handle is already durable")
    sharded = isinstance(handle, UpdatableShardedOIF)
    if not sharded and not isinstance(handle, UpdatableOIF):
        raise DurabilityError(
            f"only OIF handles can be persisted, got {type(handle).__name__}"
        )
    envs = (
        [shard.env for shard in handle.index.live_shards]
        if sharded
        else [handle.index.env]
    )
    for env in envs:
        if not env.has_catalog:
            raise DurabilityError(
                "the index was not built on catalog-enabled environments; "
                "construct it with env_factory=durable_env_factory(...)"
            )
    os.makedirs(directory, exist_ok=True)
    if os.path.exists(os.path.join(directory, "manifest.json")):
        raise DurabilityError(f"{directory!r} already holds a persisted index")
    if handle.pending_updates:
        handle.flush()
    page_size = envs[0].page_size
    cache_bytes = envs[0].cache_pages * page_size
    manifest = {
        "kind": KIND_SHARDED if sharded else KIND_OIF,
        "generation": -1,  # placeholder: store.checkpoint() publishes generation 0
        "page_size": page_size,
        "cache_bytes": cache_bytes,
        "checkpoint_lsn": 0,
        "next_id": handle._next_id,
        "fsync": fsync,
        "options": _check_options(options or {}),
    }
    if sharded:
        manifest["shards"] = handle.index.num_shards
        manifest["strategy"] = handle.index.partitioner.strategy
    if strategy is not None and sharded and strategy != manifest["strategy"]:
        raise DurabilityError(
            f"strategy {strategy!r} does not match the handle's "
            f"{manifest['strategy']!r} partitioner"
        )
    if seed is not None:
        manifest["seed"] = seed
    if dataset_config is not None:
        manifest["dataset"] = dataset_config
    store = IndexStore(directory, manifest, fsync)
    store.checkpoint(handle)
    return DurableIndex(handle, store)


def open_index(
    directory: str,
    *,
    fsync: "str | None" = None,
    cache_bytes: "int | None" = None,
    max_workers: "int | None" = None,
    processes: bool = False,
) -> DurableIndex:
    """Reopen a persisted index: load pages, rebuild state, replay the WAL.

    Returns a queryable, updatable :class:`DurableIndex` without touching the
    source dataset — everything needed is inside ``directory``.  ``fsync``
    and ``cache_bytes`` default to the values recorded in the manifest.
    ``processes`` runs a sharded index's shards in worker processes (see
    :class:`~repro.core.updates.UpdatableShardedOIF`); a monolithic index
    ignores it.
    """
    manifest = read_manifest(directory)
    page_size = manifest["page_size"]
    env_cache = cache_bytes if cache_bytes is not None else manifest["cache_bytes"]
    options = dict(manifest.get("options", {}))
    env_factory = durable_env_factory(page_size, env_cache)
    _sweep_stale_generations(directory, keep=manifest["generation"])
    if manifest["kind"] == KIND_SHARDED:
        for position in range(manifest["shards"]):
            _sweep_stale_generations(
                _shard_dir(directory, position), keep=manifest["generation"]
            )
        handle = _open_sharded(
            directory, manifest, env_cache, options, env_factory, max_workers, processes
        )
    elif manifest["kind"] == KIND_OIF:
        handle = _open_monolithic(directory, manifest, env_cache, options, env_factory)
    else:
        raise DurabilityError(f"unknown index kind {manifest['kind']!r} in manifest")
    store = IndexStore(directory, manifest, fsync if fsync is not None else manifest["fsync"])
    store.replay_into(handle)
    return DurableIndex(handle, store)


def _generation_paths(directory: str, generation: int) -> tuple[str, str]:
    pages = os.path.join(directory, f"pages-{generation}.db")
    state = os.path.join(directory, f"state-{generation}.json")
    for path in (pages, state):
        if not os.path.exists(path):
            raise DurabilityError(
                f"generation {generation} file {path!r} named by the manifest "
                "is missing; the directory is corrupt"
            )
    return pages, state


def _load_state(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise DurabilityError(f"cannot parse state file {path!r}: {exc}") from None


def _open_monolithic(directory, manifest, cache_bytes, options, env_factory):
    pages_path, state_path = _generation_paths(directory, manifest["generation"])
    env = load_environment(pages_path, manifest["page_size"], cache_bytes)
    index = load_oif(env, _load_state(state_path))
    return UpdatableOIF.from_existing(
        index,
        index.dataset,
        next_id=manifest["next_id"],
        env_factory=env_factory,
        **options,
    )


def _open_sharded(
    directory, manifest, cache_bytes, options, env_factory, max_workers, processes
):
    shards: "list[OrderedInvertedFile | None]" = [None] * manifest["shards"]
    records: list[Record] = []
    for position in manifest["shard_positions"]:
        shard_dir = _shard_dir(directory, position)
        pages_path, state_path = _generation_paths(shard_dir, manifest["generation"])
        env = load_environment(pages_path, manifest["page_size"], cache_bytes)
        shard = load_oif(env, _load_state(state_path))
        shards[position] = shard
        records.extend(shard.dataset)
    records.sort(key=lambda record: record.record_id)
    dataset = Dataset(records)
    index = ShardedIndex.from_shards(
        dataset,
        shards,
        strategy=manifest["strategy"],
        factory=lambda shard_dataset: OrderedInvertedFile(
            shard_dataset, env=env_factory(), **options
        ),
        max_workers=max_workers,
    )
    return UpdatableShardedOIF.from_existing(
        index, dataset, next_id=manifest["next_id"], processes=processes, **options
    )
