"""Concurrent query execution with result caching and in-flight deduplication.

The executor is the serving hot path.  Each query — a full expression, not
just a point predicate — goes through three gates:

1. **Result cache** — a hit is answered immediately, without touching the
   thread pool or any index (the skewed workloads of the paper make this the
   common case for hot query sets);
2. **In-flight dedup** — if an *equivalent* query (same index and same
   normalized expression) is already being evaluated, the new request
   piggybacks on its future instead of evaluating the query twice;
3. **Thread pool** — otherwise the query is dispatched to a worker, which
   takes the *read side* of the target index's reader-writer lock (many
   queries evaluate concurrently; only inserts/flushes/swaps are exclusive),
   evaluates the expression through the planner/cursor machinery, charges
   exactly its own page accesses through the traversal's read context and
   populates the cache.  A sharded index evaluates its shards one after
   another on that same worker (or in the process backend's workers), so
   every busy pool thread is a request admission control has counted.

Batches (:meth:`QueryExecutor.execute_batch`) dispatch every query before
waiting on any, so independent queries overlap across indexes and cache hits
never wait behind slow misses.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

from repro import deadline as _deadline
from repro.core.interfaces import QueryType
from repro.core.query.expr import Expr, Leaf
from repro.core.shard import ShardQueryStat
from repro.errors import DeadlineExceededError, OverloadedError, ServiceError, UnknownIndexError
from repro.obs import trace as obs_trace
from repro.obs.slowlog import SlowQueryLog
from repro.service.admission import AdmissionController
from repro.service.cache import CacheKey, ResultCache
from repro.service.index_manager import IndexManager
from repro.service.stats import ServingStats

DEFAULT_WORKERS = 4


@dataclass(frozen=True)
class QueryRequest:
    """One query expression addressed to a named resident index.

    ``expr`` is stored normalized, so equal requests — however they were
    phrased — share one cache slot and one in-flight future.  ``deadline_ms``
    is this request's wall-clock budget override (``None`` defers to the
    executor's default); it is excluded from equality so requests differing
    only in budget still share one cache slot and in-flight future.
    """

    index: str
    expr: Expr
    deadline_ms: "float | None" = field(default=None, compare=False)

    @classmethod
    def of(
        cls, index: str, expr: Expr, *, deadline_ms: "float | None" = None
    ) -> "QueryRequest":
        if not isinstance(expr, Expr):
            raise ServiceError(f"a query needs an expression, got {expr!r}")
        return cls(index=index, expr=expr.normalize(), deadline_ms=deadline_ms)

    @property
    def key(self) -> CacheKey:
        return (self.index, self.expr)


@dataclass(frozen=True)
class QueryOutcome:
    """Answer of one served query plus how it was produced.

    ``page_accesses`` / ``random_reads`` / ``sequential_reads`` come from the
    query's own read context, so they are exact for this query even when it
    ran interleaved with others on the same index.
    """

    index: str
    expr: Expr
    record_ids: tuple[int, ...]
    cached: bool
    deduplicated: bool
    latency_ms: float
    page_accesses: int
    random_reads: int = 0
    sequential_reads: int = 0
    #: Decoded-block cache lookups of this query's traversal: hits skipped
    #: the v-byte decode (pure CPU savings; page counts are unaffected).
    decoded_hits: int = 0
    decoded_misses: int = 0
    #: Per-shard cost breakdown when the target index is sharded (the fan-out
    #: path measured each shard separately); ``None`` for monolithic indexes
    #: and for answers that never touched an index (cache/dedup hits).
    shard_stats: "tuple[ShardQueryStat, ...] | None" = None
    #: Rendered span tree of this query's evaluation (see :mod:`repro.obs.trace`);
    #: ``None`` unless tracing was enabled and this query was sampled.
    trace: "dict | None" = None

    @property
    def query_type(self) -> "QueryType | None":
        """The predicate for point queries, ``None`` for composite expressions."""
        if isinstance(self.expr, Leaf):
            return QueryType(self.expr.op)
        return None

    @property
    def items(self) -> frozenset:
        """All items the expression references (the leaf's set for point queries)."""
        return self.expr.referenced_items()

    @property
    def cardinality(self) -> int:
        return len(self.record_ids)

    def as_dict(self) -> dict:
        """JSON-friendly rendering for the HTTP layer.

        Point queries keep the legacy ``type``/``items`` fields; every
        outcome additionally carries the expression in wire form.
        """
        out = {
            "index": self.index,
            "expr": self.expr.to_dict(),
            "record_ids": list(self.record_ids),
            "cardinality": self.cardinality,
            "cached": self.cached,
            "deduplicated": self.deduplicated,
            "latency_ms": round(self.latency_ms, 4),
            "page_accesses": self.page_accesses,
            "random_reads": self.random_reads,
            "sequential_reads": self.sequential_reads,
            "decoded_hits": self.decoded_hits,
            "decoded_misses": self.decoded_misses,
        }
        if self.shard_stats is not None:
            out["shards"] = [stat.as_dict() for stat in self.shard_stats]
        if self.trace is not None:
            out["trace"] = self.trace
        query_type = self.query_type
        if query_type is not None:
            out["type"] = query_type.value
            out["items"] = sorted(self.expr.referenced_items(), key=str)
        return out


class QueryExecutor:
    """Dispatches query expressions over a thread pool with caching/dedup."""

    def __init__(
        self,
        manager: IndexManager,
        cache: "ResultCache | None" = None,
        max_workers: int = DEFAULT_WORKERS,
        slow_log: "SlowQueryLog | None" = None,
        *,
        max_queue: "int | None" = None,
        max_inflight_per_index: "int | None" = None,
        default_deadline_ms: "float | None" = None,
    ) -> None:
        if max_workers < 1:
            raise ServiceError(f"need at least one worker thread, got {max_workers}")
        if default_deadline_ms is not None and default_deadline_ms <= 0:
            raise ServiceError(
                f"default_deadline_ms must be positive, got {default_deadline_ms}"
            )
        # The executor's lookup cache and the manager's invalidation cache
        # must be the same object, or inserts would invalidate one while
        # queries keep reading stale entries from the other.
        if cache is None:
            cache = manager.result_cache
        elif manager.result_cache is None:
            # Bind it, so the manager's insert listeners invalidate the cache
            # this executor reads.
            manager.result_cache = cache
        elif cache is not manager.result_cache:
            raise ServiceError(
                "the executor's cache must be the manager's result_cache "
                "(a split pair would serve stale results after updates)"
            )
        self.manager = manager
        self.cache = cache
        self.max_workers = max_workers
        self.stats = ServingStats()
        self.slow_log = slow_log if slow_log is not None else SlowQueryLog()
        self.default_deadline_ms = default_deadline_ms
        self.admission = AdmissionController(
            max_workers,
            max_queue=max_queue,
            max_inflight_per_index=max_inflight_per_index,
        )
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-query"
        )
        self._inflight: dict[CacheKey, Future] = {}
        self._inflight_lock = threading.Lock()
        self._closed = False

    # -- public API ------------------------------------------------------------------

    def submit_request(self, request: QueryRequest) -> "Future[QueryOutcome]":
        """Schedule one request; returns a future resolving to its outcome."""
        if self._closed:
            raise ServiceError("the query executor has been shut down")
        start = time.perf_counter()

        # Optimistic lock-free probe first: a cached value is valid to serve
        # regardless of in-flight state, and this keeps the hot path (repeated
        # queries, the skewed-workload common case) off the executor-global
        # lock.  The miss is not counted here — the authoritative locked
        # lookup below charges it exactly once.
        if self.cache is not None:
            hit = self.cache.get(request.key, count_miss=False)
            if hit is not None:
                return self._cached_outcome(request, hit, start)

        # Cache probe and in-flight registration happen under one lock: a
        # primary for the same key pops itself from the in-flight map only
        # *after* populating the cache, so checking in this order can never
        # miss both and evaluate an equivalent query a second time.
        with self._inflight_lock:
            primary = self._inflight.get(request.key)
            if primary is None:
                if self.cache is not None:
                    hit = self.cache.get(request.key)
                    if hit is not None:
                        return self._cached_outcome(request, hit, start)
                # Admission gates run only for primaries: cache hits are
                # answered inline and piggybacks ride an already-admitted
                # evaluation, so neither occupies a worker slot.  The
                # deadline starts ticking *now* — queue wait counts against
                # the request's budget.
                deadline = self._arm(request)
                try:
                    self.admission.admit(request.index)
                except OverloadedError as error:
                    self.stats.record_shed(error.reason)
                    self.stats.set_queue_depth(self.admission.queue_depth)
                    raise
                try:
                    primary = self._pool.submit(self._evaluate, request, start, deadline)
                except BaseException:
                    self.admission.release(request.index, started=False)
                    raise
                self.stats.set_queue_depth(self.admission.queue_depth)
                self._inflight[request.key] = primary
                return primary
        return self._piggyback(request, primary, start)

    def submit_expr(self, index: str, expr: Expr) -> "Future[QueryOutcome]":
        """Schedule one expression against a named index."""
        return self.submit_request(QueryRequest.of(index, expr))

    def execute_expr(self, index: str, expr: Expr) -> QueryOutcome:
        """Answer one expression, blocking until it resolves."""
        return self.submit_expr(index, expr).result()

    def execute_batch(self, requests: Sequence[QueryRequest]) -> list[QueryOutcome]:
        """Answer a batch of :class:`QueryRequest` objects.

        Every query is dispatched before any result is awaited, so the batch
        runs with the full concurrency of the pool; results come back in
        request order.
        """
        futures = [self.submit_request(request) for request in requests]
        return [future.result() for future in futures]

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting queries and (optionally) wait for in-flight ones."""
        self._closed = True
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "QueryExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- internals -------------------------------------------------------------------

    def _arm(self, request: QueryRequest) -> "_deadline.Deadline | None":
        """Build this request's deadline (override beats the server default).

        Raises :class:`~repro.errors.DeadlineExceededError` on a non-positive
        budget, before any admission slot is taken.
        """
        budget_ms = (
            request.deadline_ms
            if request.deadline_ms is not None
            else self.default_deadline_ms
        )
        if budget_ms is None:
            return None
        return _deadline.Deadline.after_ms(budget_ms)

    def _cached_outcome(
        self, request: QueryRequest, record_ids: tuple[int, ...], start: float
    ) -> "Future[QueryOutcome]":
        """Package a cache hit as an already-resolved future."""
        outcome = QueryOutcome(
            index=request.index,
            expr=request.expr,
            record_ids=record_ids,
            cached=True,
            deduplicated=False,
            latency_ms=(time.perf_counter() - start) * 1000.0,
            page_accesses=0,
        )
        self.stats.record_query(
            request.index, outcome.latency_ms, cached=True,
            deduplicated=False, page_accesses=0,
        )
        self._maybe_log_slow(outcome)
        done: Future = Future()
        done.set_result(outcome)
        return done

    def _maybe_log_slow(self, outcome: QueryOutcome) -> None:
        """Feed one finished query to the slow-query log (cheap when disabled)."""
        log = self.slow_log
        if log is None or not log.enabled:
            return
        log.record(
            expr=json.dumps(outcome.expr.to_dict(), sort_keys=True),
            latency_ms=outcome.latency_ms,
            index=outcome.index,
            counters={
                "page_accesses": outcome.page_accesses,
                "random_reads": outcome.random_reads,
                "sequential_reads": outcome.sequential_reads,
                "decoded_hits": outcome.decoded_hits,
                "decoded_misses": outcome.decoded_misses,
                "cached": outcome.cached,
                "deduplicated": outcome.deduplicated,
            },
            trace=outcome.trace,
        )

    def _evaluate(
        self,
        request: QueryRequest,
        start: float,
        deadline: "_deadline.Deadline | None" = None,
    ) -> QueryOutcome:
        """Worker body: run the query on its index and populate the cache."""
        self.admission.started()
        exec_start = time.perf_counter()
        executed = False
        deregistered = False
        token = None
        root = obs_trace.begin("query", index=request.index)
        try:
            if deadline is not None:
                # A request that spent its whole budget queued returns 408
                # here without touching the index or reading a page.
                deadline.check()
                token = _deadline.activate(deadline)
            # The two spans partition the root's whole window (lookup, then
            # execute), so their durations sum to the end-to-end latency.
            with obs_trace.span("lookup"):
                entry = self.manager.get(request.index)
            # Shared (read-side) hold: any number of workers evaluate this
            # index at once.  The cache is still populated while the hold is
            # open, and inserts take the exclusive write side, so an insert
            # can never slip between evaluating the query and caching its
            # (then stale) result — it serializes wholly after the put, and
            # its invalidation listeners then drop the entry.
            with obs_trace.span("execute"), entry.lock.read_locked():
                if entry.dropped:
                    raise UnknownIndexError(f"no index named {request.index!r}")
                record_ids, io_delta, shard_stats = entry.measured_expr(request.expr)
                if self.cache is not None:
                    self.cache.put(request.key, record_ids)
                # Deregister from in-flight while the read hold is still
                # open: an insert acknowledged after this point waits for the
                # write side, so no later request can piggyback on this (now
                # potentially stale) result — it will probe the cache, which
                # that insert's listeners keep honest.
                with self._inflight_lock:
                    self._inflight.pop(request.key, None)
                    deregistered = True
            span_tree = obs_trace.finish(root)
            root = None
            outcome = QueryOutcome(
                index=request.index,
                expr=request.expr,
                record_ids=record_ids,
                cached=False,
                deduplicated=False,
                latency_ms=(time.perf_counter() - start) * 1000.0,
                page_accesses=io_delta.page_reads,
                random_reads=io_delta.random_reads,
                sequential_reads=io_delta.sequential_reads,
                decoded_hits=io_delta.decoded_hits,
                decoded_misses=io_delta.decoded_misses,
                shard_stats=shard_stats,
                trace=span_tree,
            )
            self.stats.record_query(
                request.index, outcome.latency_ms, cached=False,
                deduplicated=False, page_accesses=io_delta.page_reads,
                random_reads=io_delta.random_reads,
                sequential_reads=io_delta.sequential_reads,
                decoded_hits=io_delta.decoded_hits,
                decoded_misses=io_delta.decoded_misses,
                shard_stats=shard_stats,
            )
            self._maybe_log_slow(outcome)
            executed = True
            return outcome
        except BaseException as error:
            self.stats.record_error(request.index)
            if isinstance(error, DeadlineExceededError):
                self.stats.record_deadline_expired(request.index)
                self._log_expired(request, start)
            raise
        finally:
            if token is not None:
                _deadline.deactivate(token)
            # Abandon the root span on error paths (no-op after a clean finish).
            obs_trace.discard(root)
            # Error-path cleanup only: after the in-lock deregistration above,
            # the map slot may already belong to a *newer* request for the
            # same key, which must not be evicted.
            if not deregistered:
                with self._inflight_lock:
                    self._inflight.pop(request.key, None)
            # The slot frees whether the query finished, expired or failed —
            # only completed executions feed the Retry-After EWMA (truncated
            # times would drag the estimate down).
            self.admission.release(
                request.index,
                started=True,
                service_time_s=(time.perf_counter() - exec_start) if executed else None,
            )
            self.stats.set_queue_depth(self.admission.queue_depth)

    def _log_expired(self, request: QueryRequest, start: float) -> None:
        """Record a deadline expiry in the slow-query log (admission outcome)."""
        log = self.slow_log
        if log is None or not log.enabled:
            return
        log.record(
            expr=json.dumps(request.expr.to_dict(), sort_keys=True),
            latency_ms=(time.perf_counter() - start) * 1000.0,
            index=request.index,
            counters={"outcome": "deadline_expired"},
        )

    def _piggyback(
        self, request: QueryRequest, primary: "Future[QueryOutcome]", start: float
    ) -> "Future[QueryOutcome]":
        """Return a future that mirrors ``primary`` but is marked deduplicated."""
        mirror: Future = Future()

        def _propagate(done: "Future[QueryOutcome]") -> None:
            error = done.exception()
            if error is not None:
                mirror.set_exception(error)
                return
            result = done.result()
            outcome = QueryOutcome(
                index=result.index,
                expr=result.expr,
                record_ids=result.record_ids,
                cached=result.cached,
                deduplicated=True,
                latency_ms=(time.perf_counter() - start) * 1000.0,
                # The page accesses were charged to the primary execution.
                page_accesses=0,
            )
            self.stats.record_query(
                request.index, outcome.latency_ms, cached=False,
                deduplicated=True, page_accesses=0,
            )
            self._maybe_log_slow(outcome)
            mirror.set_result(outcome)

        primary.add_done_callback(_propagate)
        return mirror
