"""JSON-over-HTTP front end for the query-serving subsystem (stdlib only).

The server glues the serving components together — an
:class:`~repro.service.index_manager.IndexManager`, a
:class:`~repro.service.cache.ResultCache` and a
:class:`~repro.service.executor.QueryExecutor` — behind a
:class:`http.server.ThreadingHTTPServer`, one OS thread per connection on top
of the executor's worker pool.

Endpoints (all payloads JSON):

* ``GET  /healthz``              — liveness: status, resident indexes, uptime;
* ``GET  /stats``                — serving counters, cache counters, index list;
* ``GET  /metrics``              — latency histograms and serving counters in
  Prometheus text exposition format (the one non-JSON endpoint);
* ``GET  /slowlog``              — the retained slow-query records (ring
  buffer; enabled with ``slow_query_ms``);
* ``GET  /indexes``              — describe the resident indexes;
* ``POST /indexes``              — create an index from inline transactions or
  a transaction file (``{"name", "kind", "transactions" | "path", ...}``; an
  optional ``"shards": N`` partitions an OIF over N concurrently built
  shards);
* ``DELETE /indexes/<name>``     — drop an index (and, for durable indexes,
  its on-disk directory);
* ``POST /indexes/<name>/rebuild`` — rebuild and swap the index in place;
* ``POST /indexes/<name>/checkpoint`` — flush deltas and publish a new
  on-disk generation, truncating the index's write-ahead log
  (``{"force"?: bool}``; durable indexes only);
* ``POST /query``                — one query ``{"index", "type", "items"}``
  (or ``{"index", "expr"}``), with an optional ``"deadline_ms"`` wall-clock
  budget override;
* ``POST /batch``                — ``{"queries": [...]}``, answered
  concurrently, results in request order; ``"deadline_ms"`` applies per
  query or as a batch default;
* ``POST /update``               — insert and/or delete records
  (``{"index", "transactions"?, "deletes"?, "flush"?}``); affected cache
  entries drop, durable indexes write-ahead-log each change before acking.

Overload control: ``max_queue`` / ``max_inflight_per_index`` bound how much
work the executor will hold — excess requests are shed immediately with
``429`` and a ``Retry-After`` hint; ``default_deadline_ms`` arms a wall-clock
deadline per request (overridable with ``deadline_ms`` on the wire) and an
expired query answers ``408`` after stopping at its next page access.

With ``data_dir`` set, indexes are persisted under it and a restarted server
reopens every one of them at construction — pages loaded, WAL replayed — in
seconds, without the source datasets.  ``checkpoint_interval`` arms a
background thread that periodically checkpoints every durable index.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import unquote

from repro.core.query.expr import (
    And,
    Expr,
    Leaf,
    Limit,
    Not,
    Or,
    expr_from_dict,
    leaf_for,
)
from repro.core.records import Dataset
from repro.datasets.io import read_transactions
from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    ReproError,
    ServiceError,
    StorageError,
    UnknownIndexError,
)
from repro.obs import trace as obs_trace
from repro.obs.slowlog import SlowQueryLog
from repro.service.cache import ResultCache
from repro.service.executor import DEFAULT_WORKERS, QueryExecutor, QueryRequest
from repro.service.index_manager import IndexManager
from repro.service.stats import (
    CHECKPOINT_AGE,
    CHECKPOINTS_TOTAL,
    WAL_BYTES,
    WAL_REPLAYED_TOTAL,
    WAL_TORN_BYTES_TOTAL,
)

#: Request body ceiling — a 100K-transaction dataset fits comfortably.
MAX_BODY_BYTES = 64 * 1024 * 1024


def _stringify_items(expr: Expr) -> Expr:
    """Coerce every leaf's items to strings, mirroring the transaction ingest.

    Served datasets are built from JSON transactions whose items are
    stringified on the way in, so expression items must match.
    """
    if isinstance(expr, Leaf):
        return type(expr)(frozenset(str(item) for item in expr.items))
    if isinstance(expr, (And, Or)):
        return type(expr)(tuple(_stringify_items(child) for child in expr.operands))
    if isinstance(expr, Not):
        return Not(_stringify_items(expr.operand))
    if isinstance(expr, Limit):
        return Limit(_stringify_items(expr.operand), count=expr.count, offset=expr.offset)
    return expr


class ServiceServer:
    """Owns the serving components and the threaded HTTP front end."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        manager: "IndexManager | None" = None,
        cache: "ResultCache | None" = None,
        executor: "QueryExecutor | None" = None,
        max_workers: int = DEFAULT_WORKERS,
        cache_capacity: int = 4096,
        quiet: bool = True,
        slow_query_ms: "float | None" = None,
        slow_query_log: "str | None" = None,
        trace: bool = False,
        trace_sample: int = 1,
        data_dir: "str | None" = None,
        checkpoint_interval: "float | None" = None,
        fsync: str = "always",
        shard_backend: str = "threads",
        max_queue: "int | None" = None,
        max_inflight_per_index: "int | None" = None,
        default_deadline_ms: "float | None" = None,
    ) -> None:
        # One cache must serve both roles — executor lookups and manager
        # invalidation; a split pair would never see its entries invalidated.
        # A supplied executor is authoritative (its cache/manager are already
        # bound); otherwise adopt a supplied manager's cache.
        # Only a manager this server created itself is torn down on
        # shutdown; an externally supplied one (directly or via an executor)
        # may outlive the server, so its resources stay armed.
        self._owns_manager = executor is None and manager is None
        if data_dir is not None and not self._owns_manager:
            raise ServiceError(
                "'data_dir' configures the manager this server builds; an "
                "externally supplied manager/executor carries its own data_dir"
            )
        if shard_backend != "threads" and not self._owns_manager:
            raise ServiceError(
                "'shard_backend' configures the manager this server builds; "
                "set it on the supplied manager instead"
            )
        if executor is not None:
            if manager is not None and manager is not executor.manager:
                raise ServiceError(
                    "the supplied manager is not the one the executor is bound to"
                )
            if cache is not None and cache is not executor.cache:
                raise ServiceError(
                    "the supplied cache is not the one the executor is bound to"
                )
            self.executor = executor
            self.manager = executor.manager
            self.cache = executor.cache  # may be None: serving without a cache
        else:
            if cache is None and manager is not None and manager.result_cache is not None:
                cache = manager.result_cache
            self.cache = cache if cache is not None else ResultCache(capacity=cache_capacity)
            self.manager = manager if manager is not None else IndexManager(
                result_cache=self.cache,
                data_dir=data_dir,
                fsync=fsync,
                shard_backend=shard_backend,
            )
            self.executor = QueryExecutor(
                self.manager,
                cache=self.cache,
                max_workers=max_workers,
                slow_log=SlowQueryLog(threshold_ms=slow_query_ms, sink=slow_query_log),
                max_queue=max_queue,
                max_inflight_per_index=max_inflight_per_index,
                default_deadline_ms=default_deadline_ms,
            )
        self.manager.result_cache = self.cache
        self.slow_log = self.executor.slow_log
        if executor is not None and slow_query_ms is not None:
            # A supplied executor keeps its slow log; arm its threshold/sink.
            self.slow_log.threshold_ms = slow_query_ms
            if slow_query_log is not None:
                self.slow_log.sink = Path(slow_query_log)
        if executor is not None:
            # Same pattern for overload control: a supplied executor keeps
            # its admission controller; these parameters re-arm its bounds.
            if max_queue is not None:
                self.executor.admission.max_queue = max_queue
            if max_inflight_per_index is not None:
                self.executor.admission.max_inflight_per_index = max_inflight_per_index
            if default_deadline_ms is not None:
                self.executor.default_deadline_ms = default_deadline_ms
        if trace:
            obs_trace.configure(enabled=True, sample_every=trace_sample)
        #: Per-index recovery stats from opening the resident catalog (if any).
        self.recovered: list[dict] = []
        if self._owns_manager and self.manager.data_dir is not None:
            registry = self.executor.stats.registry
            self.recovered = self.manager.open_resident()
            for info in self.recovered:
                registry.counter(
                    WAL_REPLAYED_TOTAL,
                    "WAL records replayed during recovery",
                    index=info["name"],
                ).inc(info["wal_records_replayed"])
                if info["torn_bytes_truncated"]:
                    registry.counter(
                        WAL_TORN_BYTES_TOTAL,
                        "Torn WAL tail bytes truncated during recovery",
                        index=info["name"],
                    ).inc(info["torn_bytes_truncated"])
        self._checkpoint_interval = checkpoint_interval
        self._checkpoint_stop = threading.Event()
        self._checkpoint_thread: "threading.Thread | None" = None
        if checkpoint_interval:
            self._checkpoint_thread = threading.Thread(
                target=self._checkpoint_loop, name="repro-checkpoint", daemon=True
            )
            self._checkpoint_thread.start()
        self.started_at = time.time()
        handler = _make_handler(self, quiet=quiet)
        self._http = ThreadingHTTPServer((host, port), handler)
        self._http.daemon_threads = True
        self.host, self.port = self._http.server_address[:2]
        self._thread: "threading.Thread | None" = None
        self._serving = False

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`shutdown` (or Ctrl-C upstream)."""
        self._serving = True
        self._http.serve_forever()

    def start(self) -> "ServiceServer":
        """Serve from a daemon thread (tests and embedded use); returns self."""
        if self._thread is not None:
            raise ServiceError("the server is already running")
        self._serving = True
        self._thread = threading.Thread(
            target=self._http.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    def _checkpoint_loop(self) -> None:
        """Periodically checkpoint every durable index (background daemon)."""
        while not self._checkpoint_stop.wait(self._checkpoint_interval):
            for entry in self.manager:
                # Re-check between entries: shutdown must not wait for a
                # whole sweep, only for the checkpoint already in flight.
                if self._checkpoint_stop.is_set():
                    return
                if not entry.is_durable or entry.dropped:
                    continue
                try:
                    result = entry.checkpoint()
                except ReproError:
                    continue  # e.g. the entry was dropped mid-iteration
                if not result.get("skipped"):
                    self.executor.stats.registry.counter(
                        CHECKPOINTS_TOTAL,
                        "Checkpoints published",
                        index=entry.name,
                        trigger="interval",
                    ).inc()

    def shutdown(self) -> None:
        """Stop the HTTP loop, close the socket and drain the executor."""
        self._checkpoint_stop.set()
        if self._checkpoint_thread is not None:
            # Wait without a timeout: a checkpoint caught mid-write must
            # finish before manager.close() tears the WAL handles down under
            # it — the per-entry stop re-check in the loop bounds the wait to
            # one in-flight checkpoint, not a whole sweep.
            self._checkpoint_thread.join()
            self._checkpoint_thread = None
        if self._serving:
            # BaseServer.shutdown() waits on an event only serve_forever()
            # sets — calling it on a never-started server hangs forever.
            self._http.shutdown()
            self._serving = False
        self._http.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.executor.shutdown()
        if self._owns_manager:
            # Clean shutdown: checkpoints every durable index (so the next
            # open is a pure page load with an empty WAL) and releases the
            # WAL file handles.  An externally supplied manager may keep
            # serving after this server is gone, so it stays armed.
            self.manager.close()

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- endpoint implementations (called by the handler) ----------------------------

    def healthz(self) -> dict:
        return {
            "status": "ok",
            "indexes": self.manager.names(),
            "uptime_seconds": round(time.time() - self.started_at, 3),
        }

    def stats(self) -> dict:
        return {
            "serving": self.executor.stats.as_dict(),
            "admission": self.executor.admission.snapshot(),
            "cache": self.cache.stats() if self.cache is not None else {"enabled": False},
            "indexes": self.manager.describe(),
        }

    def metrics(self) -> str:
        """The Prometheus text payload: serving instruments plus liveness gauges."""
        registry = self.executor.stats.registry
        registry.gauge(
            "repro_uptime_seconds", "Seconds since the server started"
        ).set(time.time() - self.started_at)
        registry.gauge(
            "repro_resident_indexes", "Number of resident indexes"
        ).set(len(self.manager.names()))
        self.executor.stats.set_queue_depth(self.executor.admission.queue_depth)
        if self.cache is not None:
            for key, value in self.cache.stats().items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    registry.gauge(
                        f"repro_result_cache_{key}", "Result cache statistic"
                    ).set(value)
        for entry in self.manager:
            if entry.is_durable and not entry.dropped:
                store = entry._handle.store
                registry.gauge(
                    CHECKPOINT_AGE,
                    "Seconds since the index's last checkpoint",
                    index=entry.name,
                ).set(store.checkpoint_age_seconds())
                registry.gauge(
                    WAL_BYTES,
                    "Write-ahead log size in bytes",
                    index=entry.name,
                ).set(sum(wal.size_bytes for wal in store._wals))
        return self.executor.stats.render_prometheus()

    def slowlog(self) -> dict:
        return self.slow_log.as_dict()

    def create_index(self, payload: dict) -> dict:
        name = payload.get("name")
        if not name or not isinstance(name, str):
            raise ServiceError("index creation needs a non-empty string 'name'")
        if "/" in name or name != name.strip():
            raise ServiceError(
                "index names must not contain '/' or leading/trailing whitespace"
            )
        kind = payload.get("kind", "oif")
        transactions = payload.get("transactions")
        path = payload.get("path")
        if (transactions is None) == (path is None):
            raise ServiceError(
                "index creation needs exactly one of 'transactions' or 'path'"
            )
        if path is not None:
            try:
                dataset = read_transactions(path)
            except OSError as error:
                # A bad path is a client mistake, not a server fault.
                raise ServiceError(f"cannot read transaction file: {error}") from error
        else:
            dataset = Dataset.from_transactions(self._transactions(payload))
        options = payload.get("options") or {}
        if not isinstance(options, dict):
            raise ServiceError("'options' must be an object of index keyword arguments")
        if "shards" in payload:
            # Top-level convenience mirroring the CLI's --shards; validated
            # by the manager when the handle is built.
            if "shards" in options and options["shards"] != payload["shards"]:
                raise ServiceError(
                    "conflicting 'shards' values in the request body and 'options'"
                )
            options = {**options, "shards": payload["shards"]}
        provenance = (
            {"source": "path", "path": str(path)}
            if path is not None
            else {"source": "inline", "transactions": len(dataset)}
        )
        try:
            entry = self.manager.create(
                name, dataset, kind=kind, dataset_config=provenance, **options
            )
        except TypeError as error:
            # An unknown/invalid index option is a client mistake, not a
            # server fault — surface it as 400 with the constructor's message.
            raise ServiceError(f"invalid index options: {error}") from error
        return entry.describe()

    def checkpoint_index(self, name: str, payload: dict) -> dict:
        """Checkpoint one durable index on request (``POST .../checkpoint``)."""
        result = self.manager.checkpoint(name, force=bool(payload.get("force")))
        if not result.get("skipped"):
            self.executor.stats.registry.counter(
                CHECKPOINTS_TOTAL,
                "Checkpoints published",
                index=name,
                trigger="request",
            ).inc()
        return {"index": name, **result}

    def run_query(self, payload: dict) -> dict:
        request = QueryRequest.of(
            self._field(payload, "index"),
            self._expr(payload),
            deadline_ms=self._deadline_ms(payload),
        )
        return self.executor.submit_request(request).result().as_dict()

    def run_batch(self, payload: dict) -> dict:
        """Answer a batch concurrently.

        A batch whose first unserved query is shed fails as a whole with 429
        — partial answers over a single JSON response would be ambiguous.
        """
        queries = payload.get("queries")
        if not isinstance(queries, list) or not queries:
            raise ServiceError("'queries' must be a non-empty list")
        default_index = payload.get("index")
        default_deadline = self._deadline_ms(payload)
        pairs = []
        for query in queries:
            if not isinstance(query, dict):
                raise ServiceError(
                    "each batch query must be an object with 'expr' or 'type'/'items'"
                )
            index = query.get("index", default_index)
            if not index:
                raise ServiceError("each batch query needs an 'index' (or a batch default)")
            deadline_ms = self._deadline_ms(query)
            pairs.append(
                QueryRequest.of(
                    index,
                    self._expr(query),
                    deadline_ms=deadline_ms if deadline_ms is not None else default_deadline,
                )
            )
        outcomes = self.executor.execute_batch(pairs)
        return {
            "count": len(outcomes),
            "results": [outcome.as_dict() for outcome in outcomes],
        }

    def update(self, payload: dict) -> dict:
        name = self._field(payload, "index")
        deletes = payload.get("deletes")
        if deletes is not None and (
            not isinstance(deletes, list)
            or not deletes
            or not all(
                isinstance(record_id, int) and not isinstance(record_id, bool)
                for record_id in deletes
            )
        ):
            raise ServiceError("'deletes' must be a non-empty list of record ids")
        if payload.get("transactions") is None and deletes is None:
            raise ServiceError("an update needs 'transactions' and/or 'deletes'")
        response: dict = {"index": name}
        if payload.get("transactions") is not None:
            new_ids = self.manager.insert(name, self._transactions(payload))
            response.update({"record_ids": new_ids, "inserted": len(new_ids)})
        if deletes is not None:
            removed = self.manager.get(name).delete(deletes)
            response["deleted"] = len(removed)
        if payload.get("flush"):
            report = self.manager.flush(name)
            if report is not None:
                response["flush"] = {
                    "records_merged": report.records_merged,
                    "merge_seconds": round(report.merge_seconds, 4),
                    "page_reads": report.page_reads,
                    "page_writes": report.page_writes,
                }
        return response

    @staticmethod
    def _transactions(payload: dict) -> list[frozenset]:
        """Validate and coerce a ``transactions`` payload into item sets."""
        transactions = payload.get("transactions")
        if not isinstance(transactions, list) or not transactions or not all(
            isinstance(transaction, list) for transaction in transactions
        ):
            raise ServiceError("'transactions' must be a non-empty list of item lists")
        return [
            frozenset(str(item) for item in transaction) for transaction in transactions
        ]

    @staticmethod
    def _deadline_ms(payload: dict) -> "float | None":
        """Parse the optional per-request ``deadline_ms`` wall-clock budget."""
        value = payload.get("deadline_ms")
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value <= 0:
            raise ServiceError("'deadline_ms' must be a positive number")
        return float(value)

    @staticmethod
    def _field(payload: dict, key: str) -> str:
        value = payload.get(key)
        if not value or not isinstance(value, str):
            raise ServiceError(f"request needs a non-empty string {key!r}")
        return value

    @staticmethod
    def _items(payload: dict) -> frozenset:
        items = payload.get("items")
        if not isinstance(items, list) or not items:
            raise ServiceError("'items' must be a non-empty list of query items")
        return frozenset(str(item) for item in items)

    @classmethod
    def _expr(cls, payload: dict) -> Expr:
        """Parse one query payload: an ``expr`` tree or legacy ``type``/``items``."""
        wire = payload.get("expr")
        if wire is not None:
            if "type" in payload or "items" in payload:
                raise ServiceError("pass either 'expr' or 'type'/'items', not both")
            return _stringify_items(expr_from_dict(wire))
        return leaf_for(cls._field(payload, "type"), cls._items(payload))


def _make_handler(service: ServiceServer, quiet: bool) -> type:
    """Build the request-handler class bound to one :class:`ServiceServer`."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-oif"

        # -- plumbing ----------------------------------------------------------------

        def log_message(self, format: str, *args) -> None:  # noqa: A002
            if not quiet:
                super().log_message(format, *args)

        def _send(
            self, status: int, payload: dict, headers: "dict | None" = None
        ) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)

        def _send_text(self, status: int, text: str, content_type: str) -> None:
            body = text.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _error(
            self,
            status: int,
            message: str,
            *,
            error_type: "str | None" = None,
            retry_after: "float | None" = None,
            reason: "str | None" = None,
        ) -> None:
            payload: dict = {"error": message}
            if error_type is not None:
                payload["error_type"] = error_type
            if reason is not None:
                payload["reason"] = reason
            headers = None
            if retry_after is not None:
                payload["retry_after"] = round(retry_after, 3)
                # Decimal seconds (our client parses floats); sub-second
                # backoff hints would round to a useless 0 or a 20x-too-long
                # 1 as the spec's integer delta-seconds.
                headers = {"Retry-After": f"{retry_after:.3f}"}
            self._send(status, payload, headers)

        def _body(self) -> dict:
            try:
                length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                self.close_connection = True
                raise ServiceError("malformed Content-Length header") from None
            if length < 0:
                # rfile.read(-1) would block until the peer closes, pinning
                # the connection thread.
                self.close_connection = True
                raise ServiceError("malformed Content-Length header") from None
            if length > MAX_BODY_BYTES:
                # The body is left unread, which would desync a keep-alive
                # connection's next request — force this connection closed.
                self.close_connection = True
                raise ServiceError(f"request body of {length} bytes is too large")
            raw = self.rfile.read(length) if length else b""
            if not raw:
                return {}
            try:
                payload = json.loads(raw)
            except json.JSONDecodeError as error:
                raise ServiceError(f"malformed JSON body: {error}") from None
            if not isinstance(payload, dict):
                raise ServiceError("the request body must be a JSON object")
            return payload

        def _dispatch(self, route) -> None:
            # Ordered most-specific first; every branch names the error type
            # in the body so the client can raise a typed exception without
            # sniffing messages.
            try:
                self._send(200, route())
            except OverloadedError as error:
                self._error(
                    429,
                    str(error),
                    error_type="overloaded",
                    retry_after=error.retry_after,
                    reason=error.reason,
                )
            except DeadlineExceededError as error:
                self._error(408, str(error), error_type="deadline_exceeded")
            except UnknownIndexError as error:
                self._error(404, str(error), error_type="unknown_index")
            except StorageError as error:
                # A storage failure is the server's fault, not the client's.
                self._error(500, f"storage failure: {error}", error_type="storage")
            except ReproError as error:
                self._error(400, str(error), error_type=type(error).__name__)
            except Exception as error:  # pragma: no cover - defensive
                self._error(500, f"internal error: {error}", error_type="internal")

        # -- verbs -------------------------------------------------------------------

        def do_GET(self) -> None:  # noqa: N802
            if self.path == "/healthz":
                self._dispatch(service.healthz)
            elif self.path == "/stats":
                self._dispatch(service.stats)
            elif self.path == "/metrics":
                try:
                    text = service.metrics()
                except Exception as error:  # pragma: no cover - defensive
                    self._error(500, f"internal error: {error}")
                else:
                    # Prometheus scrapers expect the text exposition format,
                    # not JSON (version suffix per the 0.0.4 spec).
                    self._send_text(200, text, "text/plain; version=0.0.4")
            elif self.path == "/slowlog":
                self._dispatch(service.slowlog)
            elif self.path == "/indexes":
                self._dispatch(lambda: {"indexes": service.manager.describe()})
            else:
                self._error(404, f"unknown path {self.path!r}")

        def do_POST(self) -> None:  # noqa: N802
            try:
                payload = self._body()
            except ServiceError as error:
                self._error(400, str(error))
                return
            if self.path == "/indexes":
                self._dispatch(lambda: service.create_index(payload))
            elif self.path == "/query":
                self._dispatch(lambda: service.run_query(payload))
            elif self.path == "/batch":
                self._dispatch(lambda: service.run_batch(payload))
            elif self.path == "/update":
                self._dispatch(lambda: service.update(payload))
            elif self.path.startswith("/indexes/") and self.path.endswith("/rebuild"):
                name = unquote(self.path[len("/indexes/"):-len("/rebuild")])
                self._dispatch(lambda: service.manager.rebuild(name).describe())
            elif self.path.startswith("/indexes/") and self.path.endswith("/checkpoint"):
                name = unquote(self.path[len("/indexes/"):-len("/checkpoint")])
                self._dispatch(lambda: service.checkpoint_index(name, payload))
            else:
                self._error(404, f"unknown path {self.path!r}")

        def do_DELETE(self) -> None:  # noqa: N802
            try:
                self._body()  # drain any body so keep-alive stays in sync
            except ServiceError as error:
                self._error(400, str(error))
                return
            if self.path.startswith("/indexes/"):
                name = unquote(self.path[len("/indexes/"):])

                def _drop() -> dict:
                    service.manager.drop(name)
                    return {"dropped": name}

                self._dispatch(_drop)
            else:
                self._error(404, f"unknown path {self.path!r}")

    return Handler
