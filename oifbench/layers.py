"""Per-layer attribution: timing wrappers around each layer's public entry points.

The wrappers live here, in the benchmark, and are installed by patching the
program's classes and modules at run time; ``src/`` is never edited.  A
function imported by name into other modules is patched in every loaded
``repro`` module that holds it.

Every wrapped call opens a frame on a per-thread stack.  When it returns,
its *self time* (its duration minus the durations of the wrapped calls it
made) is charged to its bucket, so across one operation the self times add
up exactly to the duration of the outermost wrapped call.  Shard fan-out
hands work to pool threads; see :meth:`Tracer._fanout` for how that work is
charged to the request that waited for it.

The same wrappers inject a fixed delay (a sleep, which releases the
interpreter lock, so only the calling request waits) at a layer's entry
points for the sensitivity self-check (:mod:`sensitivity`).
"""

from __future__ import annotations

import importlib
import sys
import threading
import time

_now = time.perf_counter_ns

#: Wrapped entry points: ``(module, attribute path, bucket, kind)``.  A
#: bucket's layer is its name up to the last dot.  ``kind`` is ``call`` for a
#: plain function, ``gen`` for a generator (each step is timed, never across
#: a ``yield``), ``wait`` for the executor worker body (also records the
#: admission wait), ``bytes`` for a decoder (also counts input bytes) and
#: ``link`` for the shard fan-out helper (links pool work to its submitter).
ENTRY_POINTS = [
    ("repro.service.executor", "QueryExecutor._evaluate", "service.executor.exec", "wait"),
    ("repro.service.admission", "AdmissionController.started", "service.admission.book", "call"),
    ("repro.service.admission", "AdmissionController.release", "service.admission.book", "call"),
    ("repro.service.client", "ServiceClient._request_once", "service.http.client", "call"),
    ("repro.service.cache", "ResultCache.get", "service.cache.lookup", "call"),
    ("repro.service.cache", "ResultCache.put", "service.cache.lookup", "call"),
    ("repro.service.index_manager", "ManagedIndex.measured_expr", "service.index_manager.measured", "call"),
    ("repro.core.updates", "UpdatableShardedOIF.evaluate_detail", "core.shard.fanout", "call"),
    ("repro.core.shard.sharded", "ShardedIndex.fanout_evaluate", "core.shard.fanout", "call"),
    ("repro.core.shard.sharded", "run_sharing_pool", "core.shard.fanout", "link"),
    ("repro.core.query.planner", "Planner.plan", "core.query.plan", "call"),
    ("repro.core.query.cursor", "Cursor.fetch_all", "core.query.fetch", "call"),
    ("repro.core.oif", "OrderedInvertedFile._probe_subset", "core.oif.probe", "call"),
    ("repro.core.oif", "OrderedInvertedFile._probe_equality", "core.oif.probe", "call"),
    ("repro.core.oif", "OrderedInvertedFile._probe_superset", "core.oif.probe", "call"),
    ("repro.core.oif", "OrderedInvertedFile._stream_single_item_subset", "core.oif.probe", "gen"),
    ("repro.core.oif", "BlockRef.decoded", "core.oif.block", "call"),
    ("repro.compression.postings", "PostingListCodec.decode_columns", "compression.decode", "bytes"),
    ("repro.core.intersect", "intersect_ids", "core.intersect.kernel", "call"),
    ("repro.core.intersect", "intersect_window", "core.intersect.kernel", "call"),
    ("repro.core.intersect", "union_count", "core.intersect.kernel", "call"),
    ("repro.core.intersect", "superset_matches", "core.intersect.kernel", "call"),
    ("repro.core.intersect", "bitmap_and_dense", "core.intersect.kernel", "call"),
    ("repro.core.intersect", "bitmap_and", "core.intersect.kernel", "call"),
    ("repro.core.intersect", "bitmap_probe", "core.intersect.kernel", "call"),
    ("repro.core.intersect", "bitmap_window_probe", "core.intersect.kernel", "call"),
    ("repro.core.intersect", "intersect_postings", "core.intersect.dispatch", "call"),
    ("repro.core.postings", "to_dense", "core.intersect.kernel", "call"),
    ("repro.storage.buffer_pool", "BufferPool.get_page", "storage.get_page", "call"),
    ("repro.storage.btree", "BTree.get", "storage.btree", "call"),
    ("repro.storage.btree", "BTree.seek", "storage.btree", "call"),
    ("repro.storage.btree", "BTree._iterate_from", "storage.btree", "gen"),
    ("repro.core.updates", "_UpdatableBase.insert", "core.updates.write", "call"),
    ("repro.core.updates", "_UpdatableBase.delete", "core.updates.write", "call"),
    ("repro.core.updates", "UpdatableOIF._flush_locked", "core.updates.flush", "call"),
    ("repro.core.updates", "_UpdatableBase.measured_evaluate", "core.updates.delta_eval", "call"),
    ("repro.core.updates", "_UpdatableBase._merge_delta_and_slice", "core.updates.delta_eval", "call"),
    ("repro.durability.store", "DurableIndex.insert", "durability.log", "call"),
    ("repro.durability.store", "DurableIndex.delete", "durability.log", "call"),
    ("repro.durability.store", "IndexStore.log_insert", "durability.log", "call"),
    ("repro.durability.store", "IndexStore.log_delete", "durability.log", "call"),
    ("repro.durability.wal", "WriteAheadLog.append", "durability.wal_append", "call"),
    ("repro.durability.store", "IndexStore.checkpoint", "durability.checkpoint", "call"),
    ("repro.durability.store", "IndexStore.replay_into", "durability.replay", "call"),
]

#: Layers in reporting order; their self times plus ``unattributed_ms`` sum
#: to the traced end-to-end time of one operation.
LAYERS = (
    "service.http",
    "service.admission",
    "service.executor",
    "service.cache",
    "service.index_manager",
    "core.shard",
    "core.query",
    "core.oif",
    "compression",
    "core.intersect",
    "storage",
    "core.updates",
    "durability",
)

#: Modules whose import makes every entry point and every by-name importer
#: of a wrapped function loadable before patching.
_PRELOAD = (
    "repro.baselines",
    "repro.core.queries",
    "repro.durability",
    "repro.service",
)


def layer_of(bucket: str) -> str:
    return bucket.rsplit(".", 1)[0]


class Tracer:
    """Installs the wrappers and accumulates self time and counts per bucket."""

    def __init__(self, delays: "dict[str, float] | None" = None) -> None:
        #: Layer name -> delay in seconds added at each of its entry points.
        self.delays = dict(delays or {})
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[_ThreadState] = []
        self._patches: list[tuple] = []
        #: Set by :meth:`pin`: the wrappers stay installed for the whole run.
        self._pinned = False

    # -- installation ---------------------------------------------------------------

    def pin(self) -> None:
        """Install now and ignore later install/uninstall calls (delay injection)."""
        self.install()
        self._pinned = True

    def install(self) -> None:
        if self._pinned or self._patches:
            return
        for name in _PRELOAD:
            importlib.import_module(name)
        for module_name, path, bucket, kind in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attr]
            wrapped = self._wrap(original, bucket, kind)
            self._set(owner, attr, original, wrapped)
            if not parents:
                # A module-level function: patch every by-name importer too.
                for name, module in list(sys.modules.items()):
                    if (
                        name.startswith("repro")
                        and module is not owner
                        and getattr(module, attr, None) is original
                    ):
                        self._set(module, attr, original, wrapped)

    def uninstall(self) -> None:
        if self._pinned:
            return
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _set(self, owner, attr: str, original, wrapped) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    # -- accounting -----------------------------------------------------------------

    def _state(self) -> "_ThreadState":
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._tables.append(state)
        return state

    def _enter(self, bucket: str) -> list:
        """Open a frame ``[start_ns, child_ns]`` on this thread's stack."""
        delay = self.delays.get(layer_of(bucket))
        frame = [_now(), 0]
        self._state().stack.append(frame)
        if delay:
            time.sleep(delay)
        return frame

    def _exit(self, bucket: str, frame: list, extra: "int | None" = None) -> None:
        """Close ``frame``; charge its self time.  ``extra=None`` adds its duration."""
        elapsed = _now() - frame[0]
        state = self._state()
        state.stack.pop()
        _charge(state.table, bucket, elapsed - frame[1], 1, elapsed if extra is None else extra)
        if state.stack:
            state.stack[-1][1] += elapsed

    def add(self, bucket: str, amount_ns: int) -> None:
        """Charge a measured interval (such as a queue wait) to ``bucket``."""
        _charge(self._state().table, bucket, amount_ns, 1, 0)

    def snapshot(self) -> dict:
        """``{bucket: (self_seconds, calls, extra)}`` summed over every thread."""
        totals: dict[str, list] = {}
        with self._lock:
            tables = [state.table for state in self._tables]
        for table in tables:
            for bucket, (self_ns, count, more) in list(table.items()):
                _charge(totals, bucket, self_ns, count, more)
        return {
            bucket: (self_ns / 1e9, count, more)
            for bucket, (self_ns, count, more) in totals.items()
        }

    def reset(self) -> None:
        with self._lock:
            for state in self._tables:
                state.table.clear()

    # -- wrappers -------------------------------------------------------------------

    def _fanout(self, fn):
        """Wrap the shard fan-out helper so pool work is charged to its caller.

        Work the caller runs inline nests under the caller's frame as usual.
        Work a pool thread runs is recorded into a private table; afterwards
        it is scaled so that, in total, it fills exactly the time the caller
        spent waiting for it (never more), and charged on the caller's
        thread.  Overlapping shards thus share the waited wall time instead
        of adding up to more than the request took.
        """
        tracer = self

        def wrapper(pool, run, items):
            owner = threading.get_ident()
            remote: list[tuple[int, dict]] = []
            inline_ns = [0]

            def linked(item):
                start = _now()
                if threading.get_ident() == owner:
                    try:
                        return run(item)
                    finally:
                        inline_ns[0] += _now() - start
                state = tracer._state()
                saved, state.table = state.table, {}
                try:
                    return run(item)
                finally:
                    remote.append((_now() - start, state.table))
                    state.table = saved

            start = _now()
            try:
                return fn(pool, linked, items)
            finally:
                waited = _now() - start - inline_ns[0]
                busy = sum(elapsed for elapsed, _ in remote)
                if busy:
                    share = min(1.0, waited / busy)
                    state = tracer._state()
                    charged = 0
                    for _, table in remote:
                        for bucket, (self_ns, count, more) in table.items():
                            part = int(self_ns * share)
                            charged += part
                            _charge(state.table, bucket, part, count, more)
                    # Pool-side time outside any wrapped call stays with the
                    # caller's frame, like the same work run inline.
                    if state.stack:
                        state.stack[-1][1] += charged

        return wrapper

    def _wrap(self, fn, bucket: str, kind: str):
        tracer = self

        if kind == "link":
            return self._fanout(fn)

        if kind == "gen":
            def wrapper(*args, **kwargs):
                steps = fn(*args, **kwargs)
                while True:
                    frame = tracer._enter(bucket)
                    try:
                        value = next(steps)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(bucket, frame, 0)
                    yield value

        elif kind == "wait":
            def wrapper(self_, request, start, *args, **kwargs):
                tracer.add("service.admission.wait", int((time.perf_counter() - start) * 1e9))
                frame = tracer._enter(bucket)
                try:
                    return fn(self_, request, start, *args, **kwargs)
                finally:
                    tracer._exit(bucket, frame)

        elif kind == "bytes":
            def wrapper(self_, data, *args, **kwargs):
                frame = tracer._enter(bucket)
                try:
                    return fn(self_, data, *args, **kwargs)
                finally:
                    tracer._exit(bucket, frame, len(data))

        else:
            def wrapper(*args, **kwargs):
                frame = tracer._enter(bucket)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit(bucket, frame, 0)

        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__wrapped__ = fn
        return wrapper


class _ThreadState:
    """One thread's open frames and its ``bucket -> [self_ns, calls, extra]`` table."""

    __slots__ = ("stack", "table")

    def __init__(self) -> None:
        self.stack: list[list] = []
        self.table: dict[str, list] = {}


def _charge(table: dict, bucket: str, self_ns: int, count: int, more: int) -> None:
    entry = table.get(bucket)
    if entry is None:
        entry = table[bucket] = [0, 0, 0]
    entry[0] += self_ns
    entry[1] += count
    entry[2] += more


def layer_table(snapshot: dict, operations: int) -> dict:
    """Per-operation self milliseconds of every layer and bucket."""
    per_op = {}
    for bucket, (seconds, _calls, _extra) in snapshot.items():
        per_op[bucket] = seconds * 1000.0 / max(1, operations)
    layers = {layer: 0.0 for layer in LAYERS}
    for bucket, value in per_op.items():
        layers[layer_of(bucket)] = layers.get(layer_of(bucket), 0.0) + value
    return {"buckets": per_op, "layers": layers}


def calls(snapshot: dict, bucket: str) -> int:
    return snapshot.get(bucket, (0.0, 0, 0))[1]


def seconds(snapshot: dict, bucket: str) -> float:
    return snapshot.get(bucket, (0.0, 0, 0))[0]


def extra(snapshot: dict, bucket: str) -> int:
    return snapshot.get(bucket, (0.0, 0, 0))[2]
