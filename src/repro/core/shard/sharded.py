"""A partition-aware index that fans queries out over per-shard indexes.

:class:`ShardedIndex` implements the full
:class:`~repro.core.interfaces.SetContainmentIndex` contract by splitting the
dataset with a deterministic :mod:`partitioner <repro.core.shard.partitioner>`
and building one complete index (an OIF by default) per shard, each with its
*own* storage environment — its own pager, buffer pool and I/O counters.
That independence is what the surrounding layers exploit:

* shard builds and rebuilds are embarrassingly parallel and each sorts /
  B-tree-loads a fraction of the data, so even a serial sharded build beats
  the monolithic one on the super-linear parts of construction;
* :meth:`execute` returns a
  :class:`~repro.core.shard.merge.MergedShardCursor` over the per-shard
  streaming cursors, so ``limit k`` still stops reading pages after ``k`` ids;
* :meth:`fanout_evaluate` materializes per shard — optionally on a thread
  pool — and reports a per-shard page/latency breakdown for the service layer;
* :meth:`absorb` merges freshly inserted records by rebuilding *only the
  shards that received any*, which is what shrinks the OIF's batch-update
  merge cost.

I/O accounting is two-level, like everywhere else: per *query*, each shard
cursor (or fanned-out evaluation) carries its own
:class:`~repro.storage.stats.ReadContext` whose counts are exact under
concurrency; pool-wide, :meth:`SetContainmentIndex.io_snapshot` sums the
per-shard totals (:meth:`IOSnapshot.__add__`), so the experiment runner's
phase-level numbers stay comparable with the monolithic indexes.
"""

from __future__ import annotations

import heapq
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from repro import deadline as _deadline
from repro.core.interfaces import SetContainmentIndex
from repro.core.oif import OrderedInvertedFile
from repro.core.query.expr import Expr, Leaf, slice_ids, split_limit
from repro.core.query.planner import Planner
from repro.core.records import Dataset, Record
from repro.core.shard.merge import FanoutPlan, MergedShardCursor
from repro.core.shard.partitioner import Partitioner, make_partitioner
from repro.core.shard.procpool import RemoteShardCursor
from repro.errors import QueryError
from repro.obs import trace
from repro.storage.stats import DiskModel, IOSnapshot, ReadContext

#: Builds one shard's index over that shard's records.
ShardFactory = Callable[[Dataset], SetContainmentIndex]

DEFAULT_NUM_SHARDS = 4


def _merge_sorted(streams: "Sequence[Sequence[int]]") -> list[int]:
    """Merge per-shard ascending id streams into one sorted list.

    Concatenate-then-sort beats ``heapq.merge`` here: Timsort detects the
    pre-sorted runs and gallops through them in C, while the heap pays a
    per-element Python-level comparison.  Only valid for *materialized*
    fan-out (the streaming path keeps its lazy heap merge for early-stop).
    """
    merged: list[int] = []
    for stream in streams:
        merged.extend(stream)
    merged.sort()
    return merged


def run_sharing_pool(pool: "ThreadPoolExecutor | None", run, items: Sequence) -> list:
    """Run ``run(item)`` for every item, borrowing ``pool`` without deadlocking.

    Safe on a *shared* pool whose workers may themselves be blocked waiting
    on fan-outs: every task is submitted, then each is either awaited (it got
    a thread and, being lock-free, will finish) or — if ``Future.cancel()``
    succeeds because no worker ever picked it up — executed inline by the
    caller.  Progress is therefore guaranteed regardless of pool saturation,
    which is what lets the serving layer share one executor pool between
    query workers and shard fan-out instead of keeping a dedicated pool per
    resident index.  Results come back in item order.
    """
    if pool is None or len(items) < 2:
        return [run(item) for item in items]
    futures = []
    for item in items:
        try:
            # Each submission carries its own copy of the caller's trace
            # context *and* the caller's deadline, so spans opened in pool
            # workers nest under the submitting query and an expired query
            # stops reading pages on every shard (both wraps are identity
            # functions when tracing/deadlines are off).
            futures.append((item, pool.submit(trace.wrap(_deadline.wrap(run)), item)))
        except RuntimeError:
            # The pool is shutting down; the remaining items run inline so a
            # query already in flight still completes.
            futures.append((item, None))
    out = []
    for position, (item, future) in enumerate(futures):
        try:
            if future is None or future.cancel():
                out.append(run(item))
            else:
                out.append(future.result())
        except BaseException:
            # Don't abandon siblings on the shared pool: queued ones are
            # cancelled, started ones are drained, so no work outlives the
            # failed call (or its caller's lock scope).
            for _, leftover in futures[position + 1:]:
                if leftover is not None and not leftover.cancel():
                    leftover.exception()
            raise
    return out


class AggregateIOStatistics:
    """Summed, read-only view of the per-shard I/O counters.

    Quacks like :class:`~repro.storage.stats.IOStatistics` for the read-side
    API the query machinery uses (``snapshot`` / ``since`` / ``disk_model``),
    but always reflects the *live* shard set — shards swapped in by a flush
    are picked up automatically.
    """

    def __init__(self, owner: "ShardedIndex") -> None:
        self._owner = owner

    @property
    def disk_model(self) -> DiskModel:
        shards = self._owner.live_shards
        if not shards:
            return DiskModel()
        model = shards[0].stats.disk_model
        for shard in shards[1:]:
            if shard.stats.disk_model != model:
                # Simulated I/O time is summed across shards, which is only
                # meaningful when every shard prices its accesses the same
                # way — answering with shards[0]'s model would silently
                # misprice the others.
                raise QueryError(
                    "shards use different disk models "
                    f"({model} vs {shard.stats.disk_model}); a sharded index "
                    "needs one cost model across all shards"
                )
        return model

    def snapshot(self) -> IOSnapshot:
        total = IOSnapshot()
        for shard in self._owner.live_shards:
            total = total + shard.stats.snapshot()
        return total

    def since(self, snapshot: IOSnapshot) -> IOSnapshot:
        return self.snapshot() - snapshot

    def reset(self) -> None:
        for shard in self._owner.live_shards:
            shard.stats.reset()


@dataclass(frozen=True)
class ShardQueryStat:
    """Per-shard cost of one fanned-out evaluation (the ``/stats`` breakdown).

    Measured through the shard cursor's own read context, so the numbers are
    exact per query even when other queries interleave on the same shard.
    """

    shard: int
    matches: int
    page_accesses: int
    elapsed_ms: float
    random_reads: int = 0
    sequential_reads: int = 0
    decoded_hits: int = 0
    decoded_misses: int = 0

    def as_dict(self) -> dict:
        return {
            "shard": self.shard,
            "matches": self.matches,
            "page_accesses": self.page_accesses,
            "elapsed_ms": round(self.elapsed_ms, 4),
            "random_reads": self.random_reads,
            "sequential_reads": self.sequential_reads,
            "decoded_hits": self.decoded_hits,
            "decoded_misses": self.decoded_misses,
        }


@dataclass(frozen=True)
class AbsorbReport:
    """What one :meth:`ShardedIndex.absorb` merge did."""

    records_absorbed: int
    rebuilt_shards: tuple[int, ...]
    io: IOSnapshot


class ShardedIndex(SetContainmentIndex):
    """Fan-out wrapper satisfying the index contract over partitioned shards.

    Parameters
    ----------
    dataset:
        The full dataset; queries and the planner see it whole, storage is
        partitioned.
    num_shards:
        Number of partitions.  Partitions without records keep an empty slot
        (``None``) until an :meth:`absorb` routes records into them.
    strategy:
        Partitioning strategy name (``"hash"`` / ``"round_robin"``) or a
        ready :class:`Partitioner`.
    factory:
        Optional builder for each shard's index; defaults to an
        :class:`OrderedInvertedFile` with ``index_kwargs`` forwarded.  Every
        shard must own a private environment, so passing ``env`` is rejected.
    max_workers:
        When > 1, shard (re)builds run on an ephemeral thread pool of this
        size; ``None``/1 builds serially.
    """

    name = "ShardedOIF"

    def __init__(
        self,
        dataset: Dataset,
        num_shards: int = DEFAULT_NUM_SHARDS,
        *,
        strategy: "str | Partitioner" = "hash",
        factory: "ShardFactory | None" = None,
        max_workers: "int | None" = None,
        **index_kwargs,
    ) -> None:
        if "env" in index_kwargs:
            raise QueryError(
                "sharded indexes give every shard its own storage environment; "
                "a shared 'env' would break per-shard accounting and parallelism"
            )
        if factory is not None and index_kwargs:
            raise QueryError("pass either a shard factory or index options, not both")
        # Deliberately not calling the base __init__: a sharded index owns no
        # single environment — the env-dependent surface is overridden below.
        self.dataset = dataset
        self.env = None
        self._planner: "Planner | None" = None
        self.partitioner = make_partitioner(strategy, num_shards)
        self.max_workers = max_workers
        #: The OIF options the shards were built with — what the process
        #: backend records in each shard image's state file so workers reopen
        #: with identical decode behavior.  Unknown for custom factories.
        self._index_options: "dict | None" = (
            dict(index_kwargs) if factory is None else None
        )
        self._procpool = None
        self._factory: ShardFactory = factory or (
            lambda shard_dataset: OrderedInvertedFile(shard_dataset, **index_kwargs)
        )
        groups = self.partitioner.split(dataset)
        built = self._map_positions(
            [position for position, group in enumerate(groups) if group],
            lambda position: self._factory(Dataset(groups[position])),
        )
        self._shards: list["SetContainmentIndex | None"] = [None] * num_shards
        for position, shard in built:
            self._shards[position] = shard
        self._stats = AggregateIOStatistics(self)
        template = self.live_shards[0]
        self.name = f"{template.name}x{num_shards}"

    @classmethod
    def from_shards(
        cls,
        dataset: Dataset,
        shards: "Sequence[SetContainmentIndex | None]",
        *,
        strategy: "str | Partitioner" = "hash",
        factory: "ShardFactory | None" = None,
        max_workers: "int | None" = None,
        **index_kwargs,
    ) -> "ShardedIndex":
        """Assemble a sharded index from already-built per-shard indexes.

        The durability layer reopens each shard's environment from disk and
        re-wires them here without any rebuild.  ``shards`` must be position-
        ordered with ``None`` for empty slots and partitioned consistently
        with ``strategy`` — the partitioner routes future inserts, so a
        mismatch would corrupt the shard assignment.
        """
        if factory is not None and index_kwargs:
            raise QueryError("pass either a shard factory or index options, not both")
        index = cls.__new__(cls)
        index.dataset = dataset
        index.env = None
        index._planner = None
        index.partitioner = make_partitioner(strategy, len(shards))
        index.max_workers = max_workers
        index._index_options = dict(index_kwargs) if factory is None else None
        index._procpool = None
        index._factory = factory or (
            lambda shard_dataset: OrderedInvertedFile(shard_dataset, **index_kwargs)
        )
        index._shards = list(shards)
        index._stats = AggregateIOStatistics(index)
        if not index.live_shards:
            raise QueryError("from_shards() needs at least one built shard")
        template = index.live_shards[0]
        index.name = f"{template.name}x{len(shards)}"
        return index

    def rebuilt_over(self, dataset: Dataset) -> "ShardedIndex":
        """A fresh sharded index over ``dataset``, built the way this one was.

        Same shard count, strategy, shard factory, build workers and recorded
        shard options, so the fresh shards are page-identical to a first
        build over ``dataset``.
        """
        fresh = ShardedIndex(
            dataset,
            self.num_shards,
            strategy=self.partitioner.strategy,
            factory=self._factory,
            max_workers=self.max_workers,
        )
        fresh._index_options = self._index_options
        return fresh

    # -- shard management ------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return self.partitioner.num_shards

    @property
    def live_shards(self) -> list[SetContainmentIndex]:
        """The built (non-empty) shard indexes, in position order."""
        return [shard for shard in self._shards if shard is not None]

    def shard_at(self, position: int) -> "SetContainmentIndex | None":
        return self._shards[position]

    def shard_record_counts(self) -> list[int]:
        """Records resident per shard position (0 for still-empty slots)."""
        return [
            len(shard.dataset) if shard is not None else 0 for shard in self._shards
        ]

    # -- execution backend (threads vs processes) --------------------------------------

    @property
    def process_pool(self):
        """The attached :class:`~repro.core.shard.procpool.ShardProcessPool`, if any."""
        return self._procpool

    def attach_process_pool(self, pool) -> None:
        """Route :meth:`execute`/:meth:`fanout_evaluate` through ``pool``.

        The pool must have been built over *this* index — its workers hold
        images of these shards' pages; attaching someone else's pool would
        silently answer queries from a different dataset.
        """
        if pool.index is not self:
            raise QueryError("the process pool was built for a different index")
        self._procpool = pool

    def detach_process_pool(self) -> None:
        """Fall back to in-process (threaded) fan-out; the pool stays usable."""
        self._procpool = None

    def _absorb_remote(self, remote, ctx: "ReadContext | None") -> None:
        """Fold one worker-shard result's I/O back into parent accounting.

        Two destinations keep the two-level invariant intact across the
        process boundary: the caller's read context (per-query exactness)
        and the shard's own buffer pool totals (``sum(contexts) == totals``),
        the latter under the pool's frame lock like every other mutation.
        """
        shard = self._shards[remote.position]
        if shard is not None and shard.env is not None:
            shard.env.pool.absorb_snapshot(remote.io)
        if ctx is not None:
            ctx.absorb_snapshot(remote.io)
        trace.attach_rendered(remote.trace_tree)

    def _map_positions(
        self, positions: Sequence[int], build, max_workers: "int | None" = None
    ) -> list[tuple[int, object]]:
        """Run ``build(position)`` for every position, in parallel when asked.

        ``max_workers`` overrides the index default for this call.  Each task
        touches only its own shard's (fresh) environment, so the tasks share
        no mutable state and a plain thread pool is safe.
        """
        workers = self.max_workers if max_workers is None else max_workers
        if workers and workers > 1 and len(positions) > 1:
            with ThreadPoolExecutor(
                max_workers=min(workers, len(positions)),
                thread_name_prefix="repro-shard-build",
            ) as pool:
                results = list(pool.map(build, positions))
        else:
            results = [build(position) for position in positions]
        return list(zip(positions, results))

    # -- probe primitives (fan out + ordered merge) ----------------------------------

    def _probe_subset(self, items: frozenset, ctx: "ReadContext | None" = None) -> list[int]:
        return self._fanned_probe(lambda shard, sub: shard._probe_subset(items, sub), ctx)

    def _probe_equality(self, items: frozenset, ctx: "ReadContext | None" = None) -> list[int]:
        return self._fanned_probe(lambda shard, sub: shard._probe_equality(items, sub), ctx)

    def _probe_superset(self, items: frozenset, ctx: "ReadContext | None" = None) -> list[int]:
        return self._fanned_probe(lambda shard, sub: shard._probe_superset(items, sub), ctx)

    def _fanned_probe(self, probe, ctx: "ReadContext | None") -> list[int]:
        # Shards are disjoint and each probe returns a sorted list, so an
        # ordered merge reproduces exactly the unsharded answer.  Each shard
        # gets a private sub-context (page ids are per page file, so one
        # shared last-page-id would fake sequentiality across shards); the
        # counts fold back into the caller's context.
        streams = []
        for shard in self.live_shards:
            sub = ReadContext() if ctx is not None else None
            streams.append(probe(shard, sub))
            if ctx is not None and sub is not None:
                ctx.absorb(sub)
        return list(heapq.merge(*streams))

    def probe(self, leaf: Leaf, ctx: "ReadContext | None" = None) -> Iterator[int]:
        """Stream one predicate leaf by chaining the shards' streaming probes."""
        for shard in self.live_shards:
            sub = ReadContext() if ctx is not None else None
            try:
                yield from shard.probe(leaf, sub)
            finally:
                # Runs on exhaustion *and* on early close (GeneratorExit), so
                # a limit-stopped stream still folds its partial reads back.
                if ctx is not None and sub is not None:
                    ctx.absorb(sub)

    # -- execution -------------------------------------------------------------------

    def execute(
        self,
        expr: Expr,
        planner: "Planner | None" = None,
        ctx: "ReadContext | None" = None,
    ) -> MergedShardCursor:
        """Fan ``expr`` out to every shard and merge the streaming cursors.

        A top-level ``limit``/``offset`` is peeled off and applied by the
        merge, so non-contributing shards are never drained; each shard plans
        the inner expression with its own statistics unless an explicit
        ``planner`` overrides them all.

        An explicit ``ctx`` is shared by every shard cursor, so the caller's
        context receives the exact page counts of the whole fan-out (the
        merged cursor's ``io_delta`` then reads from it); because page ids
        are per shard file, the sequential/random split of a shared context
        blurs at shard boundaries — omit ``ctx`` (the default) to keep
        per-shard classification.

        Like every streaming cursor, a limited stream yields a prefix of its
        *production* order — here the shard rotation — so which ``k`` of the
        matching ids come back depends on the physical layout (just as the
        unsharded cursor's prefix depends on page order).  Unlimited answers
        are always exactly the unsharded ones; callers that need a
        layout-independent limited answer slice the sorted result instead,
        which is what the delta-aware wrappers and the service layer do
        (:meth:`repro.core.updates._UpdatableBase.evaluate`).

        With a process pool attached, the shards evaluate eagerly in their
        worker processes instead of streaming lazily: each worker gets the
        whole slice bound pushed down as a per-shard ``limit`` (no shard can
        contribute more than ``offset + count`` ids), so the merged answer —
        including a limited prefix — is byte-identical to the threaded
        stream's.  An explicit ``planner`` cannot cross the process boundary
        and falls back to in-process execution.
        """
        if not isinstance(expr, Expr):
            raise QueryError(f"execute() needs a query expression, got {expr!r}")
        normalized = expr.normalize()
        inner, count, offset = split_limit(normalized)
        procpool = self._procpool
        if procpool is not None and planner is None:
            cap = None if count is None else count + offset
            remotes = procpool.evaluate(inner, cap=cap, sort=False)
            cursors = []
            for position in sorted(remotes):
                remote = remotes[position]
                self._absorb_remote(remote, ctx)
                shard = self._shards[position]
                cursors.append(
                    RemoteShardCursor(shard.planner.plan(inner), remote.ids, remote.io)
                )
            return MergedShardCursor(
                self, cursors, normalized, count=count, offset=offset, ctx=ctx
            )
        cursors = [
            shard.execute(inner, planner=planner, ctx=ctx) for shard in self.live_shards
        ]
        return MergedShardCursor(
            self, cursors, normalized, count=count, offset=offset, ctx=ctx
        )

    def explain(self, expr: Expr, planner: "Planner | None" = None) -> str:
        """Render the fan-out plan without opening any cursor (no I/O)."""
        inner, count, offset = split_limit(expr)
        plans = tuple(
            (planner or shard.planner).plan(inner) for shard in self.live_shards
        )
        return FanoutPlan(plans, count=count, offset=offset).explain()

    def fanout_evaluate(
        self, expr: Expr, pool: "ThreadPoolExecutor | None" = None
    ) -> tuple[list[int], list[ShardQueryStat]]:
        """Materialize ``expr`` shard by shard with a per-shard cost breakdown.

        Each shard evaluates through its own cursor — and therefore its own
        read context — so the per-shard page counts are exact even while
        other queries run against the same shards concurrently.  A top-level
        limit is applied *after* the ordered merge, matching the delta-aware
        evaluation semantics of :meth:`repro.core.updates._UpdatableBase.evaluate`.

        ``pool`` may be any shared executor, including the serving layer's
        query pool: tasks are submitted and then either awaited or — when the
        pool is saturated and never started them — cancelled and run inline
        by the caller, so fan-out can never deadlock on pool exhaustion.

        With a process pool attached, the shards evaluate in their worker
        processes instead (``pool`` is ignored): results and per-shard page
        counts are bit-identical to the threaded fan-out, the workers'
        I/O snapshots are absorbed back into the shard totals, and any trace
        spans the workers record are grafted under the calling query's span.
        """
        inner, count, offset = split_limit(expr)
        procpool = self._procpool
        if procpool is not None:
            remotes = procpool.evaluate(inner, sort=True)
            stats: list[ShardQueryStat] = []
            streams = []
            for position in sorted(remotes):
                remote = remotes[position]
                self._absorb_remote(remote, None)
                delta = remote.io
                stats.append(
                    ShardQueryStat(
                        shard=position,
                        matches=len(remote.ids),
                        page_accesses=delta.page_reads,
                        elapsed_ms=remote.elapsed_ms,
                        random_reads=delta.random_reads,
                        sequential_reads=delta.sequential_reads,
                        decoded_hits=delta.decoded_hits,
                        decoded_misses=delta.decoded_misses,
                    )
                )
                streams.append(remote.ids)
            return slice_ids(_merge_sorted(streams), count, offset), stats
        pairs = [
            (position, shard)
            for position, shard in enumerate(self._shards)
            if shard is not None
        ]

        def run(pair: "tuple[int, SetContainmentIndex]") -> tuple[list[int], ShardQueryStat]:
            position, shard = pair
            started = time.perf_counter()
            with trace.span("shard", shard=position):
                cursor = shard.execute(inner)
                ids = sorted(cursor.fetch_all())
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            delta = cursor.io_delta()
            stat = ShardQueryStat(
                shard=position,
                matches=len(ids),
                page_accesses=delta.page_reads,
                elapsed_ms=elapsed_ms,
                random_reads=delta.random_reads,
                sequential_reads=delta.sequential_reads,
                decoded_hits=delta.decoded_hits,
                decoded_misses=delta.decoded_misses,
            )
            return ids, stat

        outcomes = run_sharing_pool(pool, run, pairs)
        merged = _merge_sorted([ids for ids, _ in outcomes])
        return slice_ids(merged, count, offset), [stat for _, stat in outcomes]

    # -- updates ---------------------------------------------------------------------

    def absorb(
        self,
        fresh_records: Sequence[Record],
        max_workers: "int | None" = None,
        removed_ids: "Iterable[int] | None" = None,
    ) -> AbsorbReport:
        """Merge ``fresh_records`` by rebuilding only the shards that get any.

        ``removed_ids`` names resident records to drop during the merge: the
        shards owning them rebuild over their surviving records (a shard whose
        records all disappear reverts to an empty slot).  The untouched shards
        keep their indexes (and warm buffer pools) as-is — this is the
        per-shard counterpart of the monolithic ``UpdatableOIF.flush`` full
        rebuild.  Rebuilds run on an ephemeral pool when ``max_workers`` (or
        the index default) allows.
        """
        fresh = list(fresh_records)
        removed = set(removed_ids or ())
        if not fresh and not removed:
            return AbsorbReport(records_absorbed=0, rebuilt_shards=(), io=IOSnapshot())
        groups: dict[int, list[Record]] = {}
        for record in fresh:
            groups.setdefault(self.partitioner.shard_of(record.record_id), []).append(record)
        for record_id in removed:
            groups.setdefault(self.partitioner.shard_of(record_id), [])

        def rebuild(position: int) -> "tuple[SetContainmentIndex | None, IOSnapshot]":
            current = self._shards[position]
            existing = list(current.dataset) if current is not None else []
            if removed:
                existing = [
                    record for record in existing if record.record_id not in removed
                ]
            merged = existing + groups[position]
            if not merged:
                return None, IOSnapshot()
            shard = self._factory(Dataset(merged))
            # The shard's environment is brand new, so its counters are
            # exactly the build cost.
            return shard, shard.stats.snapshot()

        built = self._map_positions(sorted(groups), rebuild, max_workers=max_workers)
        total_io = IOSnapshot()
        for position, (shard, build_io) in built:
            self._shards[position] = shard
            total_io = total_io + build_io
        survivors = [
            record for record in self.dataset if record.record_id not in removed
        ] if removed else list(self.dataset)
        self.dataset = Dataset(survivors + fresh)
        # Frequency statistics changed; replan from the merged dataset.
        self._planner = None
        if self._procpool is not None:
            # The rebuilt shards' workers hold stale page images; re-image
            # exactly those positions and have the owners reopen them.  The
            # caller (flush) holds the write lock, so no query races this.
            self._procpool.refresh(sorted(groups))
        return AbsorbReport(
            records_absorbed=len(fresh),
            rebuilt_shards=tuple(sorted(groups)),
            io=total_io,
        )

    # -- instrumentation -------------------------------------------------------------

    @property
    def stats(self) -> AggregateIOStatistics:
        """Aggregated per-shard counters (read-only view, always live)."""
        return self._stats

    def io_snapshot(self) -> IOSnapshot:
        return self._stats.snapshot()

    @property
    def index_size_bytes(self) -> int:
        return sum(shard.index_size_bytes for shard in self.live_shards)

    def drop_cache(self) -> None:
        for shard in self.live_shards:
            shard.drop_cache()
