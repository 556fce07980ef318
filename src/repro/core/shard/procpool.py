"""Multiprocess shard execution: per-worker processes owning fixed shard sets.

In-process fan-out (:meth:`ShardedIndex.fanout_evaluate
<repro.core.shard.sharded.ShardedIndex.fanout_evaluate>`) runs a query's
shards one after another on the query's own thread: threads would buy little
wall clock for CPU-bound probes, since the GIL serializes the
decode/intersect work.  This module is the parallel path.  Shards are
shared-nothing (one private storage environment each), so the process
boundary is natural: it runs each shard inside a long-lived worker process
that holds the shard *open*, and ships only expressions in and columnar
results out.

How a :class:`ShardProcessPool` works:

* **images** — every shard's environment is snapshotted verbatim
  (:func:`~repro.durability.state.copy_environment` +
  :func:`~repro.durability.state.dump_state`, the PR-7 on-disk format) into a
  pool-private temp directory, or borrowed from a durable store's current
  generation files.  Page ids are preserved, so the worker's page-access
  accounting is bit-identical to the parent's;
* **workers** — one spawn-context, single-process executor per worker slot.
  Each worker opens a fixed subset of shards at startup
  (:func:`~repro.durability.state.load_environment` +
  :func:`~repro.durability.state.load_oif`) and keeps them warm across
  queries.  Pinning shards to workers is what makes targeted invalidation
  (and targeted respawn after a crash) possible — the stdlib pool cannot
  route tasks to a chosen process;
* **IPC** — queries travel as canonical expression dicts
  (:meth:`~repro.core.query.expr.Expr.to_dict`); results come back as the
  wire shape of ``PostingColumns``: flat ``array('Q')`` buffers, inlined as
  bytes or placed in :mod:`multiprocessing.shared_memory` above a size
  threshold.  Each shard's answer carries its exact
  :class:`~repro.storage.stats.IOSnapshot`, which the parent absorbs into
  both the caller's read context and the shard's own buffer-pool totals — so
  ``sum(contexts) == totals`` keeps holding across the process boundary;
* **updates** — writes never cross the boundary.  Delta buffers and
  tombstones live in the parent (see
  :meth:`repro.core.updates._UpdatableBase._merge_delta_and_slice`); after a
  flush rebuilds shards, :meth:`ShardProcessPool.refresh` re-images exactly
  the rebuilt positions and tells their owning workers to reopen them;
* **faults** — a worker killed mid-query breaks only its own executor: the
  in-flight query fails with a clear :class:`~repro.errors.QueryError`, the
  pool respawns that worker from the current images, and the next query is
  served normally.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import tempfile
import threading
import time
from array import array
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import TYPE_CHECKING, Iterator, Sequence

from repro import deadline as _deadline
from repro.core.query.expr import Expr, Limit, expr_from_dict
from repro.errors import QueryError
from repro.obs import trace
from repro.storage.stats import IOSnapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.query.planner import Plan
    from repro.core.shard.sharded import ShardedIndex

#: Result buffers at or above this many bytes ride in shared memory instead
#: of being pickled inline through the result pipe.
DEFAULT_SHM_THRESHOLD = 1 << 20

#: Raw id columns at or above this many bytes are considered for the packed
#: bitmap wire form (below it the conversion costs more than it saves).
_BITMAP_WIRE_BYTES = 1 << 12

#: Option value types that survive the JSON state file round trip.
_JSON_SCALARS = (str, int, float, bool)


@dataclass(frozen=True)
class ShardImage:
    """Pointer to one shard's on-disk snapshot (pages + JSON state).

    ``owned`` marks images written by the pool itself (into its temp
    directory) — those are deleted when superseded; borrowed images (a
    durable store's generation files) are left alone.
    """

    position: int
    pages_path: str
    state_path: str
    page_size: int
    cache_bytes: int
    owned: bool = True


@dataclass(frozen=True)
class _Task:
    """One worker's slice of a fanned-out query (all shards it owns)."""

    positions: tuple[int, ...]
    expr: dict
    cap: "int | None"
    sort: bool
    shm_threshold: int
    traced: bool
    #: Remaining wall-clock budget in ms (a monotonic deadline cannot cross
    #: the process boundary; the worker re-arms a local one from this).
    deadline_ms: "float | None" = None


@dataclass
class RemoteShardResult:
    """One shard's answer as received from its worker."""

    position: int
    ids: Sequence[int]
    io: IOSnapshot
    elapsed_ms: float
    trace_tree: "dict | None" = None


# -- columnar IPC payloads -------------------------------------------------------------


def _pack_raw(raw: bytes, shm_threshold: int) -> tuple:
    """Ship raw bytes inline, or through shared memory at/above the threshold."""
    if shm_threshold and len(raw) >= shm_threshold:
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(create=True, size=max(1, len(raw)))
        try:
            segment.buf[: len(raw)] = raw
        finally:
            segment.close()
        return ("shm", segment.name, len(raw))
    return ("inline", raw)


def _unpack_raw(payload: tuple) -> bytes:
    """Inverse of :func:`_pack_raw` (unlinking any shared-memory segment)."""
    if payload[0] == "inline":
        return payload[1]
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(name=payload[1])
    try:
        return bytes(segment.buf[: payload[2]])
    finally:
        segment.close()
        segment.unlink()


def _pack_ids(ids: Sequence[int], shm_threshold: int) -> tuple:
    """Encode a sorted/produced id sequence as a u64 column payload.

    Dense, strictly increasing runs ship as a packed bitmap —
    ``("bitmap", base, words_payload)`` via
    :func:`repro.core.postings.pack_sorted_ids`, which only engages when the
    packed words undercut the raw column by at least 2x; the parent converts
    back to the identical ascending column at the boundary.  Everything else
    ships as the raw ``array('Q')`` bytes.  Either form rides inline in the
    pickled return value below ``shm_threshold`` bytes and through a
    shared-memory segment at or above it (the worker creates and fills the
    segment, the parent unlinks it after copying out).  Ids that overflow u64
    fall back to a plain pickled list — correctness over compactness.
    """
    try:
        raw = array("Q", ids).tobytes()
    except (OverflowError, TypeError):
        return ("object", list(ids))
    if len(raw) >= _BITMAP_WIRE_BYTES:
        from repro.core.postings import pack_sorted_ids

        packed = pack_sorted_ids(
            ids if isinstance(ids, array) else array("Q", ids)
        )
        if packed is not None:
            base, words = packed
            return ("bitmap", base, _pack_raw(words, shm_threshold))
    return _pack_raw(raw, shm_threshold)


def _unpack_ids(payload: tuple) -> Sequence[int]:
    """Decode a payload produced by :func:`_pack_ids` (unlinking any shm)."""
    kind = payload[0]
    if kind == "object":
        return payload[1]
    if kind == "bitmap":
        from repro.core.postings import unpack_ids

        return unpack_ids(payload[1], _unpack_raw(payload[2]))
    out = array("Q")
    out.frombytes(_unpack_raw(payload))
    return out


# -- worker-side entry points ----------------------------------------------------------
#
# These run inside the worker process.  State lives in a module-level dict:
# each worker process is single-threaded and owns exactly the shards its
# initializer (or a later reload) opened.

_WORKER_SHARDS: dict = {}


def _open_image(image: ShardImage) -> None:
    from repro.durability.state import load_environment, load_oif

    env = load_environment(image.pages_path, image.page_size, image.cache_bytes)
    with open(image.state_path, "r", encoding="utf-8") as handle:
        state = json.load(handle)
    _WORKER_SHARDS[image.position] = load_oif(env, state)


def _worker_init(images: "tuple[ShardImage, ...]") -> None:
    # A foreground Ctrl-C is delivered to the whole process group; the
    # parent coordinates shutdown (executor close / SIGTERM), so workers
    # ignoring SIGINT just avoids a KeyboardInterrupt traceback race.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for image in images:
        _open_image(image)


def _worker_reload(
    images: "tuple[ShardImage, ...]", removed: "tuple[int, ...]" = ()
) -> list:
    """Reopen refreshed shards and drop positions that became empty."""
    for position in removed:
        _WORKER_SHARDS.pop(position, None)
    for image in images:
        _open_image(image)
    return sorted(_WORKER_SHARDS)


def _worker_evaluate(task: _Task) -> list:
    """Evaluate one expression on every shard this worker owns."""
    inner = expr_from_dict(task.expr)
    expr = inner if task.cap is None else Limit(inner, count=task.cap)
    token = None
    if task.deadline_ms is not None:
        # Arm a local deadline from the shipped remaining budget; an already
        # exhausted budget raises here, before any page is read.  The page
        # accesses each shard *did* perform before expiry are still counted
        # in its cursor context — but an expired worker raises instead of
        # returning, so the parent absorbs nothing and the worker-side pool
        # totals (discarded with the image on refresh) stay self-consistent.
        token = _deadline.activate(_deadline.Deadline.after_ms(task.deadline_ms))
    out = []
    try:
        out = _worker_evaluate_shards(task, expr)
    finally:
        if token is not None:
            _deadline.deactivate(token)
    return out


def _worker_evaluate_shards(task: _Task, expr: Expr) -> list:
    out = []
    for position in task.positions:
        shard = _WORKER_SHARDS.get(position)
        if shard is None:
            raise QueryError(
                f"shard worker (pid {os.getpid()}) does not hold shard {position}"
            )
        root = None
        if task.traced:
            trace.configure(enabled=True)
            root = trace.begin("shard", shard=position, pid=os.getpid())
        started = time.perf_counter()
        try:
            cursor = shard.execute(expr)
            ids = cursor.fetch_all()
        finally:
            tree = trace.finish(root)
            if task.traced:
                trace.disable()
        if task.sort:
            ids.sort()
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        out.append(
            {
                "position": position,
                "ids": _pack_ids(ids, task.shm_threshold),
                "io": cursor.io_delta(),
                "elapsed_ms": elapsed_ms,
                "trace": tree,
            }
        )
    return out


def _worker_drop_caches() -> int:
    """Drop every held shard's buffer-pool and decoded caches (benchmarks)."""
    for shard in _WORKER_SHARDS.values():
        shard.drop_cache()
    return len(_WORKER_SHARDS)


def _worker_pid() -> int:
    return os.getpid()


# -- the parent-side pool --------------------------------------------------------------


@dataclass
class _Worker:
    """One worker slot: its single-process executor plus the shards it holds."""

    executor: ProcessPoolExecutor
    images: dict = field(default_factory=dict)


class RemoteShardCursor:
    """Parent-side stand-in for one shard's cursor, fed from a worker result.

    Quacks like a :class:`~repro.core.query.cursor.Cursor` for everything the
    merge layer touches: iteration in the shard's production order, the
    physical ``plan`` (computed by the parent's planner — planning reads no
    pages) and ``io_delta`` reporting the worker's exact snapshot.
    """

    def __init__(self, plan: "Plan", ids: Sequence[int], io: IOSnapshot) -> None:
        self.plan = plan
        self._ids = iter(ids)
        self._io = io

    def __iter__(self) -> Iterator[int]:
        return self

    def __next__(self) -> int:
        return next(self._ids)

    def fetch_all(self) -> list:
        return list(self)

    def io_delta(self) -> IOSnapshot:
        return self._io


class ShardProcessPool:
    """Persistent process backend executing a :class:`ShardedIndex`'s shards.

    Parameters
    ----------
    index:
        The sharded index to serve.  Every live shard must sit on a
        catalog-enabled environment (``Environment(catalog=True)``) — the
        page-image format needs the page-0 catalog to reopen tables.
    num_workers:
        Worker processes; defaults to ``min(cpu_count, live shards)``.
        Shards are pinned round-robin: position *i* (in live order) belongs
        to worker ``i % num_workers``.
    options:
        The index keyword arguments the shards were built with (``compress``,
        ``use_metadata``, ...), recorded in each image's state file so the
        worker-side reopen decodes blocks identically.  Defaults to the
        options captured by the index itself.
    images:
        Optional pre-existing images (position → :class:`ShardImage`), e.g.
        a durable store's checkpointed generation files; positions not named
        are materialized into the pool's temp directory as usual.
    shm_threshold:
        Byte size at which result columns switch from inline pickling to
        shared memory; ``0`` disables shared memory entirely.
    """

    def __init__(
        self,
        index: "ShardedIndex",
        num_workers: "int | None" = None,
        *,
        options: "dict | None" = None,
        images: "dict[int, ShardImage] | None" = None,
        shm_threshold: int = DEFAULT_SHM_THRESHOLD,
    ) -> None:
        self.index = index
        if options is None:
            options = getattr(index, "_index_options", None)
        if options is None:
            raise QueryError(
                "the process backend needs the shards' index options to "
                "reopen them; pass options= (or build the index without a "
                "custom factory)"
            )
        for key, value in options.items():
            if value is not None and not isinstance(value, _JSON_SCALARS):
                raise QueryError(
                    f"index option {key}={value!r} is not JSON-representable; "
                    "the process backend cannot ship it to workers"
                )
        self._options = dict(options)
        self._shm_threshold = shm_threshold
        self._dir = tempfile.mkdtemp(prefix="repro-procpool-")
        self._version = 0
        self._closed = False
        self._lock = threading.Lock()
        self._ctx = get_context("spawn")
        positions = [
            position
            for position in range(index.num_shards)
            if index.shard_at(position) is not None
        ]
        if not positions:
            raise QueryError("the process backend needs at least one live shard")
        if num_workers is None:
            num_workers = min(os.cpu_count() or 1, len(positions))
        if num_workers < 1:
            raise QueryError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = min(num_workers, len(positions))
        borrowed = dict(images or {})
        self._workers: list[_Worker] = []
        try:
            for worker_idx in range(self.num_workers):
                owned = positions[worker_idx :: self.num_workers]
                worker_images = {
                    position: borrowed.get(position) or self._materialize(position)
                    for position in owned
                }
                self._workers.append(self._spawn(worker_images))
            # Force every worker process to start (and run its initializer
            # over today's images) now: the stdlib executor spawns lazily on
            # first submit, and a later refresh() may have replaced the image
            # files the frozen initargs point at.  Spawns overlap.
            for future in [
                worker.executor.submit(_worker_pid) for worker in self._workers
            ]:
                future.result()
        except BaseException:
            self.close()
            raise

    # -- image management --------------------------------------------------------------

    def _materialize(self, position: int) -> ShardImage:
        """Snapshot one live shard's pages + state into the pool's temp dir."""
        from repro.durability.state import copy_environment, dump_state

        shard = self.index.shard_at(position)
        env = getattr(shard, "env", None)
        if env is None or not getattr(env, "has_catalog", False):
            raise QueryError(
                "the process backend opens shards from page images, which "
                f"requires catalog-enabled environments; shard {position} "
                "has none (build the index with Environment(catalog=True) "
                "envs, e.g. via durable_env_factory)"
            )
        self._version += 1
        base = os.path.join(self._dir, f"shard-{position:02d}-v{self._version}")
        pages_path = base + ".pages.db"
        state_path = base + ".state.json"
        copy_environment(env, pages_path)
        with open(state_path, "w", encoding="utf-8") as handle:
            json.dump(dump_state(shard, self._options), handle, separators=(",", ":"))
        return ShardImage(
            position=position,
            pages_path=pages_path,
            state_path=state_path,
            page_size=env.page_size,
            cache_bytes=env.cache_pages * env.page_size,
        )

    def _discard_image(self, image: "ShardImage | None") -> None:
        if image is None or not image.owned:
            return
        for path in (image.pages_path, image.state_path):
            try:
                os.remove(path)
            except OSError:
                pass

    # -- worker lifecycle --------------------------------------------------------------

    def _spawn(self, images: "dict[int, ShardImage]") -> _Worker:
        executor = ProcessPoolExecutor(
            max_workers=1,
            mp_context=self._ctx,
            initializer=_worker_init,
            initargs=(tuple(images.values()),),
        )
        return _Worker(executor=executor, images=dict(images))

    def _respawn(self, worker_idx: int) -> None:
        """Replace a broken worker with a fresh one over the current images."""
        with self._lock:
            if self._closed:
                return
            old = self._workers[worker_idx]
            old.executor.shutdown(wait=False, cancel_futures=True)
            self._workers[worker_idx] = self._spawn(old.images)

    def worker_pids(self) -> "list[int]":
        """The live worker process ids, in worker-slot order."""
        self._check_open()
        futures = [worker.executor.submit(_worker_pid) for worker in self._workers]
        return [future.result() for future in futures]

    def drop_caches(self) -> None:
        """Drop every worker-held shard cache (cold-cache benchmark runs)."""
        self._check_open()
        futures = [
            worker.executor.submit(_worker_drop_caches) for worker in self._workers
        ]
        for future in futures:
            future.result()

    def _check_open(self) -> None:
        if self._closed:
            raise QueryError("the shard process pool is closed")

    # -- execution ---------------------------------------------------------------------

    def evaluate(
        self, inner: Expr, *, cap: "int | None" = None, sort: bool = True
    ) -> "dict[int, RemoteShardResult]":
        """Run ``inner`` on every held shard; returns per-position results.

        ``cap`` pushes a per-shard ``Limit(count=cap)`` down to the workers
        (the streaming-execute path: no shard can contribute more than the
        whole slice needs); ``sort`` asks workers to sort ids ascending (the
        fanout-evaluate path) instead of keeping production order.

        A worker that dies mid-query (OOM-killed, segfaulted, ``kill -9``)
        fails *this* query with a :class:`QueryError` naming the worker; the
        pool respawns it from the current images before raising, so the next
        query runs normally.

        When the calling context has a :mod:`repro.deadline` armed, the
        *remaining* budget ships with each task and every worker arms a local
        deadline from it — an expired query stops reading pages inside the
        workers and the fan-out raises
        :class:`~repro.errors.DeadlineExceededError` here.
        """
        self._check_open()
        armed = _deadline.current()
        deadline_ms: "float | None" = None
        if armed is not None:
            # Fail before paying the IPC round trip on a spent budget.
            armed.check()
            deadline_ms = armed.remaining_ms()
        wire = inner.to_dict()
        traced = trace.is_active()
        submitted: list = []
        with self._lock:
            workers = list(self._workers)
        for worker_idx, worker in enumerate(workers):
            if not worker.images:
                continue
            task = _Task(
                positions=tuple(sorted(worker.images)),
                expr=wire,
                cap=cap,
                sort=sort,
                shm_threshold=self._shm_threshold,
                traced=traced,
                deadline_ms=deadline_ms,
            )
            try:
                submitted.append(
                    (worker_idx, worker.executor.submit(_worker_evaluate, task))
                )
            except (BrokenProcessPool, RuntimeError) as error:
                self._respawn(worker_idx)
                raise QueryError(
                    f"shard worker {worker_idx} is unavailable "
                    f"({error}); it has been respawned — retry the query"
                ) from error
        results: dict[int, RemoteShardResult] = {}
        broken: list[int] = []
        failure: "BaseException | None" = None
        for worker_idx, future in submitted:
            try:
                entries = future.result()
            except BrokenProcessPool as error:
                broken.append(worker_idx)
                failure = failure or error
                continue
            except BaseException as error:  # worker-raised (e.g. QueryError)
                failure = failure or error
                continue
            for entry in entries:
                results[entry["position"]] = RemoteShardResult(
                    position=entry["position"],
                    ids=_unpack_ids(entry["ids"]),
                    io=entry["io"],
                    elapsed_ms=entry["elapsed_ms"],
                    trace_tree=entry["trace"],
                )
        for worker_idx in broken:
            self._respawn(worker_idx)
        if broken:
            raise QueryError(
                f"shard worker(s) {broken} died mid-query; the in-flight "
                "query failed and the worker(s) have been respawned — retry "
                "the query"
            ) from failure
        if failure is not None:
            raise failure
        return results

    # -- invalidation ------------------------------------------------------------------

    def refresh(self, positions: "Sequence[int]") -> None:
        """Re-image rebuilt shard positions and reopen them in their workers.

        Called after :meth:`ShardedIndex.absorb` (under the updatable
        wrapper's write lock, so no query races the reload).  Positions whose
        shard became empty are dropped from their worker; positions that
        newly came alive are assigned to the least-loaded worker.
        """
        self._check_open()
        by_worker: dict[int, tuple[list, list]] = {}
        stale: list = []
        with self._lock:
            owner_of = {
                position: worker_idx
                for worker_idx, worker in enumerate(self._workers)
                for position in worker.images
            }
            for position in sorted(set(positions)):
                shard = self.index.shard_at(position)
                worker_idx = owner_of.get(position)
                if worker_idx is None:
                    if shard is None:
                        continue
                    worker_idx = min(
                        range(len(self._workers)),
                        key=lambda idx: len(self._workers[idx].images),
                    )
                fresh, removed = by_worker.setdefault(worker_idx, ([], []))
                worker = self._workers[worker_idx]
                # Superseded images are deleted only after the reloads land:
                # a worker that hasn't spawned yet would run its initializer
                # over the old files and die on startup.
                stale.append(worker.images.pop(position, None))
                if shard is None:
                    removed.append(position)
                else:
                    image = self._materialize(position)
                    worker.images[position] = image
                    fresh.append(image)
            futures = [
                (
                    worker_idx,
                    self._workers[worker_idx].executor.submit(
                        _worker_reload, tuple(fresh), tuple(removed)
                    ),
                )
                for worker_idx, (fresh, removed) in by_worker.items()
            ]
        try:
            for worker_idx, future in futures:
                try:
                    future.result()
                except BrokenProcessPool as error:
                    # The respawn initializer reopens the *current* images,
                    # which already include the refreshed ones — recovery is
                    # complete.
                    self._respawn(worker_idx)
                    raise QueryError(
                        f"shard worker {worker_idx} died during refresh; it "
                        "has been respawned over the refreshed images"
                    ) from error
        finally:
            for image in stale:
                self._discard_image(image)

    # -- lifecycle ---------------------------------------------------------------------

    def close(self) -> None:
        """Shut every worker down and remove the pool's image directory."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers)
            self._workers = []
        for worker in workers:
            worker.executor.shutdown(wait=True, cancel_futures=True)
        shutil.rmtree(self._dir, ignore_errors=True)

    def __enter__(self) -> "ShardProcessPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
