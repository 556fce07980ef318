"""Overload control: admission gates, deadlines, shed accounting, client retry.

Covers the full stack top to bottom: the :class:`AdmissionController` gates
in isolation, the executor's shed/deadline integration (including exact
page-access accounting at the buffer-pool boundary and no thread leaks), the
deadline shipping across the multiprocess shard backend, the HTTP status
mapping (429 + ``Retry-After``, 408, 404, 400) and the client's typed
exceptions, idempotent-only retries and capped jittered backoff.
"""

from __future__ import annotations

import pickle
import threading
import time

import pytest

from repro import deadline as deadline_mod
from repro.core import Dataset, OrderedInvertedFile
from repro.core.query import Subset, leaf_for
from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    ServiceError,
    ServiceHTTPError,
    ServiceOverloadedError,
    ServiceTimeoutError,
)
from repro.service import IndexManager, QueryExecutor, ResultCache, ServiceClient, ServiceServer
from repro.service.admission import AdmissionController
from repro.service.executor import QueryRequest
from repro.storage.buffer_pool import BufferPool
from repro.storage.pager import MemoryPageFile
from repro.storage.stats import IOStatistics

TRANSACTIONS = [
    {"a", "b", "d", "g"},
    {"a", "b", "e"},
    {"a", "b", "e", "f"},
    {"a", "b", "d"},
    {"a", "b", "c", "f"},
    {"a", "c"},
    {"d", "h"},
    {"a", "b", "f"},
    {"b", "c"},
    {"b", "g", "j"},
]


# -- the controller in isolation -------------------------------------------------------


class TestAdmissionController:
    def test_queue_bound_sheds_with_reason_and_hint(self):
        controller = AdmissionController(1, max_queue=1)
        controller.admit("web")  # fills the single worker
        controller.admit("web")  # waits in the queue (bound 1)
        with pytest.raises(OverloadedError) as caught:
            controller.admit("web")
        assert caught.value.reason == "queue_full"
        assert caught.value.retry_after > 0.0
        # A freed slot readmits.
        controller.release("web", started=False)
        controller.admit("web")
        assert controller.snapshot()["shed"] == {"queue_full": 1}

    def test_per_index_limit_sheds_only_the_hot_index(self):
        controller = AdmissionController(4, max_inflight_per_index=1)
        controller.admit("hot")
        with pytest.raises(OverloadedError) as caught:
            controller.admit("hot")
        assert caught.value.reason == "index_limit"
        controller.admit("cold")  # other tenants are unaffected
        controller.release("hot", started=False)
        controller.admit("hot")  # freed slot readmits

    def test_release_restores_all_accounting(self):
        controller = AdmissionController(2, max_queue=8, max_inflight_per_index=4)
        controller.admit("web")
        controller.started()
        controller.release("web", started=True, service_time_s=0.2)
        snapshot = controller.snapshot()
        assert snapshot["queue_depth"] == 0
        assert snapshot["running"] == 0
        assert snapshot["per_index_inflight"] == {}
        assert snapshot["service_time_ewma_ms"] == pytest.approx(200.0)

    def test_retry_after_scales_with_backlog(self):
        controller = AdmissionController(1, max_queue=100)
        controller.admit("web")
        controller.started()
        controller.release("web", started=True, service_time_s=0.5)
        idle_hint = controller.retry_after()
        for _ in range(4):
            controller.admit("web")
        assert controller.retry_after() > idle_hint
        assert controller.retry_after() <= 30.0

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            AdmissionController(1, max_queue=-1)
        with pytest.raises(ValueError):
            AdmissionController(1, max_inflight_per_index=0)


# -- deadline primitive and the page-access boundary -----------------------------------


class TestDeadline:
    def test_non_positive_budget_raises_immediately(self):
        with pytest.raises(DeadlineExceededError):
            deadline_mod.Deadline.after_ms(0)

    def test_expired_deadline_stops_get_page_before_charging(self):
        pager = MemoryPageFile(page_size=64)
        stats = IOStatistics()
        pool = BufferPool(pager, capacity=2, stats=stats)
        page_id = pager.allocate()
        token = deadline_mod.activate(deadline_mod.Deadline.after_ms(0.001))
        try:
            time.sleep(0.002)
            with pytest.raises(DeadlineExceededError):
                pool.get_page(page_id)
        finally:
            deadline_mod.deactivate(token)
        # The check fires *before* the access is charged: nothing half-counted.
        assert stats.logical_reads == 0
        assert stats.page_reads == 0
        # Disarmed, the same access proceeds and charges exactly one read.
        pool.get_page(page_id)
        assert stats.logical_reads == 1
        assert stats.page_reads == 1

    def test_check_is_noop_without_a_deadline(self):
        assert deadline_mod.current() is None
        deadline_mod.check()  # must not raise

    def test_deadline_error_pickles(self):
        error = DeadlineExceededError("query deadline exceeded (12.0 ms past)")
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, DeadlineExceededError)
        assert "12.0 ms" in str(clone)


# -- executor integration --------------------------------------------------------------


@pytest.fixture()
def serving():
    dataset = Dataset.from_transactions(
        [frozenset(str(i) for i in t) for t in TRANSACTIONS]
    )
    cache = ResultCache(capacity=64)
    manager = IndexManager(result_cache=cache)
    manager.create("web", dataset, kind="oif")
    with QueryExecutor(
        manager, cache=cache, max_workers=1, max_queue=1, max_inflight_per_index=8
    ) as executor:
        yield manager, executor


def test_executor_sheds_when_the_queue_is_full(serving):
    manager, executor = serving
    entry = manager.get("web")
    with entry.lock.write_locked():
        # The single worker blocks on the read lock, a second distinct query
        # fills the one queue slot — the third must be shed, not parked.
        running = executor.submit_expr("web", leaf_for("subset", {"a"}))
        waiting = executor.submit_expr("web", leaf_for("subset", {"f"}))
        with pytest.raises(OverloadedError) as caught:
            executor.submit_expr("web", leaf_for("subset", {"b"}))
        assert caught.value.reason == "queue_full"
        assert caught.value.retry_after > 0.0
    assert running.result(timeout=5.0).record_ids
    assert waiting.result(timeout=5.0).record_ids is not None
    assert executor.stats.shed == {"queue_full": 1}
    assert executor.admission.queue_depth == 0
    assert executor.admission.running == 0


def test_cache_and_dedup_bypass_admission(serving):
    manager, executor = serving
    warm = executor.execute_expr("web", leaf_for("subset", {"a", "b"}))
    assert warm.cached is False
    entry = manager.get("web")
    with entry.lock.write_locked():
        blocked = executor.submit_expr("web", leaf_for("subset", {"c"}))
        deadline = time.monotonic() + 5.0
        while executor.admission.running == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        # A cached answer needs no worker slot and is never shed ...
        assert executor.execute_expr("web", leaf_for("subset", {"a", "b"})).cached is True
        # ... and an identical in-flight query piggybacks instead of queueing.
        mirror = executor.submit_expr("web", leaf_for("subset", {"c"}))
    assert blocked.result(timeout=5.0).record_ids == mirror.result(timeout=5.0).record_ids
    assert mirror.result().deduplicated is True
    assert executor.stats.shed == {}


def test_deadline_expired_in_queue_returns_promptly_without_reading(serving):
    manager, executor = serving
    entry = manager.get("web")
    with entry.lock.write_locked():
        running = executor.submit_expr("web", leaf_for("subset", {"d"}))
        deadline = time.monotonic() + 5.0
        while executor.admission.running == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        expiring = executor.submit_request(
            QueryRequest.of("web", Subset(frozenset({"e"})), deadline_ms=20.0)
        )
        time.sleep(0.05)  # the budget expires while the request sits queued
    assert running.result(timeout=5.0).record_ids
    started = time.perf_counter()
    with pytest.raises(DeadlineExceededError):
        expiring.result(timeout=5.0)
    assert (time.perf_counter() - started) < 1.0
    outcome = executor.stats.as_dict()
    assert outcome["deadline_expired"] == 1
    assert outcome["deadline_expired_per_index"] == {"web": 1}
    assert executor.admission.queue_depth == 0
    assert executor.admission.running == 0


def test_expired_queries_leak_no_threads(serving):
    _, executor = serving
    executor.execute_expr("web", leaf_for("subset", {"a"}))  # pool thread exists already
    before = threading.active_count()
    for _ in range(5):
        with pytest.raises(DeadlineExceededError):
            executor.submit_request(
                QueryRequest.of("web", Subset(frozenset({"a", "b", "c"})), deadline_ms=0.001)
            ).result(timeout=5.0)
    assert threading.active_count() == before
    # The executor still serves normally afterwards.
    assert executor.execute_expr("web", leaf_for("subset", {"a"})).record_ids


# -- deadline across the multiprocess shard backend ------------------------------------


def test_worker_side_deadline_arms_and_stops_page_reads():
    from repro.core.shard import procpool

    dataset = Dataset.from_transactions(
        [frozenset(str(i) for i in t) for t in TRANSACTIONS]
    )
    procpool._WORKER_SHARDS[0] = OrderedInvertedFile(dataset)
    try:
        task = procpool._Task(
            positions=(0,),
            expr=Subset(frozenset({"a"})).to_dict(),
            cap=None,
            sort=True,
            shm_threshold=0,
            traced=False,
            deadline_ms=0.001,
        )
        time.sleep(0.002)
        with pytest.raises(DeadlineExceededError):
            procpool._worker_evaluate(task)
        # The worker-local deadline is disarmed even on the raise path.
        assert deadline_mod.current() is None
        # Without a budget the same task answers normally.
        plain = procpool._Task(
            positions=(0,),
            expr=Subset(frozenset({"a"})).to_dict(),
            cap=None,
            sort=True,
            shm_threshold=0,
            traced=False,
        )
        (entry,) = procpool._worker_evaluate(plain)
        assert procpool._unpack_ids(entry["ids"])
    finally:
        procpool._WORKER_SHARDS.clear()


def test_expired_deadline_fails_procpool_fanout_before_dispatch():
    from repro.core.shard import ShardProcessPool, ShardedIndex

    dataset = Dataset.from_transactions(
        [frozenset(str(i) for i in t) for t in TRANSACTIONS]
    )
    index = ShardedIndex(dataset, 2, catalog_pages=True)
    pool = ShardProcessPool(index, 1)
    index.attach_process_pool(pool)
    try:
        token = deadline_mod.activate(deadline_mod.Deadline.after_ms(0.001))
        try:
            time.sleep(0.002)
            with pytest.raises(DeadlineExceededError):
                index.execute(Subset(frozenset({"a"}))).fetch_all()
        finally:
            deadline_mod.deactivate(token)
        # The pool survives the expiry and serves the next query.
        ids = index.execute(Subset(frozenset({"a"}))).fetch_all()
        assert ids
    finally:
        pool.close()


# -- HTTP mapping and the client -------------------------------------------------------


@pytest.fixture()
def overload_server():
    with ServiceServer(
        max_workers=1, cache_capacity=32, max_queue=0, max_inflight_per_index=8
    ) as running:
        client = ServiceClient(port=running.port, max_retries=0)
        client.create_index("web", transactions=TRANSACTIONS)
        yield running, client


def test_http_shed_answers_429_with_retry_after(overload_server):
    server, client = overload_server
    entry = server.manager.get("web")
    with entry.lock.write_locked():
        mistimed = threading.Thread(
            target=lambda: client.query("web", "subset", ["a"])
        )
        mistimed.start()
        deadline = time.monotonic() + 5.0
        while server.executor.admission.running == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        shed_client = ServiceClient(port=server.port, max_retries=0)
        with pytest.raises(ServiceOverloadedError) as caught:
            shed_client.query("web", "subset", ["b"])
    mistimed.join(timeout=5.0)
    assert caught.value.status == 429
    assert caught.value.retry_after is not None and caught.value.retry_after > 0.0
    stats = client.stats()
    assert stats["serving"]["shed"]["queue_full"] >= 1
    assert stats["admission"]["max_queue"] == 0
    assert "repro_shed_total" in client.metrics()


def test_http_deadline_expiry_answers_408(overload_server):
    server, client = overload_server
    with pytest.raises(ServiceTimeoutError) as caught:
        client.query("web", "subset", ["a", "b", "c"], deadline_ms=0.001)
    assert caught.value.status == 408
    stats = client.stats()
    assert stats["serving"]["deadline_expired"] >= 1
    assert "repro_deadline_expired_total" in client.metrics()
    # The server keeps serving normally after the expiry.
    assert client.query("web", "subset", ["a"])["record_ids"]


def test_http_status_mapping_is_typed(overload_server):
    _, client = overload_server
    with pytest.raises(ServiceHTTPError) as missing:
        client.query("ghost", "subset", ["a"])
    assert missing.value.status == 404
    with pytest.raises(ServiceHTTPError) as invalid:
        client.query("web", "subset", [])
    assert invalid.value.status == 400
    assert not isinstance(invalid.value, (ServiceOverloadedError, ServiceTimeoutError))


def test_batch_carries_deadline_defaults_and_overrides():
    with ServiceServer(max_workers=2, cache_capacity=32) as server:
        client = ServiceClient(port=server.port, max_retries=0)
        client.create_index("web", transactions=TRANSACTIONS)
        results = client.batch(
            [{"type": "subset", "items": ["a"]}, {"type": "subset", "items": ["b"]}],
            index="web",
            deadline_ms=60_000,
        )
        assert len(results) == 2
        with pytest.raises(ServiceTimeoutError):
            client.batch(
                [{"type": "subset", "items": ["c"], "deadline_ms": 0.001}],
                index="web",
                deadline_ms=60_000,
            )


class TestClientRetry:
    def _client(self, **kwargs) -> ServiceClient:
        return ServiceClient(port=1, **kwargs)

    def test_backoff_honors_retry_after_and_caps_attempts(self, monkeypatch):
        client = self._client(max_retries=2, backoff_base=0.01, backoff_cap=1.0)
        calls = []
        sleeps = []

        def shed(method, path, payload, **kwargs):
            calls.append(path)
            raise ServiceOverloadedError("shed", status=429, retry_after=0.4)

        monkeypatch.setattr(client, "_request_once", shed)
        monkeypatch.setattr("repro.service.client.time.sleep", sleeps.append)
        with pytest.raises(ServiceOverloadedError):
            client._request("POST", "/query", {"index": "web"})
        assert len(calls) == 3  # initial + max_retries
        assert len(sleeps) == 2
        for slept in sleeps:
            # Retry-After (0.4s) beats the tiny exponential base; jitter only
            # shrinks the wait, never below half the hint, never past the cap.
            assert 0.2 <= slept <= 1.0

    def test_retry_succeeds_after_transient_shed(self, monkeypatch):
        client = self._client(max_retries=2, backoff_base=0.001, backoff_cap=0.002)
        attempts = []

        def flaky(method, path, payload, **kwargs):
            attempts.append(path)
            if len(attempts) == 1:
                raise ServiceOverloadedError("shed", status=429, retry_after=0.001)
            return {"ok": True}

        monkeypatch.setattr(client, "_request_once", flaky)
        assert client._request("POST", "/query", {}) == {"ok": True}
        assert len(attempts) == 2

    def test_non_idempotent_requests_never_retry_on_shed(self, monkeypatch):
        client = self._client(max_retries=5)
        attempts = []

        def shed(method, path, payload, **kwargs):
            attempts.append(path)
            raise ServiceOverloadedError("shed", status=429, retry_after=0.001)

        monkeypatch.setattr(client, "_request_once", shed)
        with pytest.raises(ServiceOverloadedError):
            client._request("POST", "/update", {"index": "web"})
        assert len(attempts) == 1

    def test_update_is_not_resent_on_a_stale_connection(self):
        client = self._client()

        class StaleConnection:
            timeout = 30.0
            sock = None
            calls = 0

            def request(self, *args, **kwargs):
                StaleConnection.calls += 1
                raise OSError("connection reset by peer")

            def close(self):
                pass

        client._local.connection = StaleConnection()
        with pytest.raises(ServiceError, match="NOT retried"):
            client.insert("web", [{"a"}])
        assert StaleConnection.calls == 1

    def test_idempotent_read_is_retried_on_a_stale_connection(self):
        client = self._client()

        class StaleConnection:
            timeout = 30.0
            sock = None
            calls = 0

            def request(self, *args, **kwargs):
                StaleConnection.calls += 1
                raise OSError("connection reset by peer")

            def close(self):
                pass

        client._local.connection = StaleConnection()
        # The retry opens a fresh connection to a dead port and fails there —
        # proof the read was re-sent rather than failed fast.
        with pytest.raises(ServiceError, match="cannot reach"):
            client.healthz()
        assert StaleConnection.calls == 1
