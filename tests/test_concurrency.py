"""Concurrent read path: reader-writer locks, per-context accounting, stress.

The acceptance contract of the concurrent refactor:

* N threads running mixed query types against one resident index produce
  results identical to a serial run, and — under an eviction-free cache
  regime — per-query read-context counters identical to the serial baseline;
* per-context page counts always sum exactly to the pool-wide totals, under
  any interleaving and any cache size;
* the service query path holds only the shared (read) side of the entry
  lock, while insert/flush/rebuild-swap stay exclusive;
* sharded fan-out borrows the shared executor pool without deadlocking,
  even when the pool is fully saturated.

Run in CI under ``pytest-timeout`` with faulthandler enabled, so a deadlock
dumps stacks and fails fast instead of hanging the job.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.concurrency import ReadWriteLock
from repro.core.oif import OrderedInvertedFile
from repro.core.query import And, Equality, Or, Subset, Superset, leaf_for
from repro.core.records import Dataset
from repro.core.updates import UpdatableOIF
from repro.service import IndexManager, QueryExecutor, ResultCache
from repro.storage.stats import ReadContext

THREADS = 8


def _dataset(num_records: int = 240, domain: int = 30, seed: int = 13) -> Dataset:
    rng = random.Random(seed)
    items = [f"i{n}" for n in range(domain)]
    transactions = []
    for _ in range(num_records):
        size = rng.randint(1, 6)
        transactions.append(set(rng.sample(items, size)))
    return Dataset.from_transactions(transactions)


def _mixed_queries(dataset: Dataset, count: int = 36, seed: int = 29) -> list:
    """Subset/equality/superset leaves plus composites, over real item sets."""
    rng = random.Random(seed)
    records = [record for record in dataset if record.length >= 2]
    queries = []
    while len(queries) < count:
        record = rng.choice(records)
        picked = frozenset(rng.sample(sorted(record.items, key=str), 2))
        single = frozenset([rng.choice(sorted(record.items, key=str))])
        shape = len(queries) % 6
        if shape == 0:
            queries.append(Subset(picked))
        elif shape == 1:
            queries.append(Equality(frozenset(record.items)))
        elif shape == 2:
            queries.append(Superset(frozenset(record.items) | picked))
        elif shape == 3:
            queries.append(And((Subset(single), Subset(picked))))
        elif shape == 4:
            queries.append(Or((Subset(picked), Equality(frozenset(record.items)))))
        else:
            queries.append(Subset(single).limit(5))
    return queries


class TestReadWriteLock:
    def test_concurrent_readers_and_reentrancy(self):
        lock = ReadWriteLock()
        with lock.read_locked():
            with lock.read_locked():  # reentrant
                assert lock.active_readers == 1

            entered = threading.Event()

            def other_reader():
                with lock.read_locked():
                    entered.set()

            thread = threading.Thread(target=other_reader)
            thread.start()
            assert entered.wait(timeout=5.0), "second reader must not block"
            thread.join(timeout=5.0)

    def test_writer_excludes_readers_and_is_reentrant(self):
        lock = ReadWriteLock()
        observed = []
        with lock.write_locked():
            with lock.write_locked():  # reentrant
                with lock.read_locked():  # nested read inside write
                    pass

            def reader():
                with lock.read_locked():
                    observed.append("read")

            thread = threading.Thread(target=reader)
            thread.start()
            thread.join(timeout=0.2)
            assert observed == [], "reader must wait for the writer"
        thread.join(timeout=5.0)
        assert observed == ["read"]

    def test_upgrade_attempt_raises(self):
        lock = ReadWriteLock()
        with lock.read_locked():
            with pytest.raises(RuntimeError, match="upgrade"):
                lock.acquire_write()

    def test_waiting_writer_blocks_new_readers(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        wrote = threading.Event()
        second_read = threading.Event()

        def writer():
            with lock.write_locked():
                wrote.set()

        def late_reader():
            with lock.read_locked():
                second_read.set()

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        # Give the writer time to queue, then try a fresh reader: writer
        # preference parks it behind the waiting writer.
        writer_thread.join(timeout=0.1)
        reader_thread = threading.Thread(target=late_reader)
        reader_thread.start()
        reader_thread.join(timeout=0.1)
        assert not wrote.is_set() and not second_read.is_set()
        lock.release_read()
        writer_thread.join(timeout=5.0)
        reader_thread.join(timeout=5.0)
        assert wrote.is_set() and second_read.is_set()

    def test_unbalanced_releases_raise(self):
        lock = ReadWriteLock()
        with pytest.raises(RuntimeError):
            lock.release_read()
        with pytest.raises(RuntimeError):
            lock.release_write()


class TestConcurrentQueryStress:
    """N threads x mixed query types on one index == the serial baseline."""

    @pytest.fixture(scope="class")
    def setup(self):
        dataset = _dataset()
        # Eviction-free regime: the whole index fits in the buffer pool, so
        # after a warm-up pass every query's page/logical read counts are a
        # pure function of its traversal — schedule-independent.
        oif = OrderedInvertedFile(dataset, cache_bytes=1 << 22)
        queries = _mixed_queries(dataset)
        return oif, queries

    def _measure_serial(self, oif, queries):
        out = []
        for expr in queries:
            cursor = oif.execute(expr)
            ids = sorted(cursor.fetch_all())
            out.append((ids, cursor.io_delta()))
        return out

    def test_concurrent_equals_serial(self, setup):
        oif, queries = setup
        self._measure_serial(oif, queries)  # warm the pool
        baseline = self._measure_serial(oif, queries)  # warmed serial baseline

        barrier = threading.Barrier(THREADS)
        failures: list[str] = []

        def worker(thread_index: int) -> None:
            rng = random.Random(1000 + thread_index)
            order = list(range(len(queries)))
            rng.shuffle(order)  # every thread interleaves differently
            barrier.wait(timeout=30.0)
            for query_index in order:
                cursor = oif.execute(queries[query_index])
                ids = sorted(cursor.fetch_all())
                delta = cursor.io_delta()
                expected_ids, expected_delta = baseline[query_index]
                if ids != expected_ids:
                    failures.append(f"query {query_index}: ids diverge")
                if delta != expected_delta:
                    failures.append(
                        f"query {query_index}: io {delta} != serial {expected_delta}"
                    )

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads), "stress run hung"
        assert failures == []

    def test_cold_small_cache_contexts_sum_to_pool_totals(self):
        """Under eviction + interleaving: answers exact, accounting exact."""
        dataset = _dataset(seed=17)
        oif = OrderedInvertedFile(dataset, cache_bytes=32 * 1024)  # paper cache
        queries = _mixed_queries(dataset, seed=31)
        serial_ids = [sorted(oif.execute(expr).fetch_all()) for expr in queries]

        before = oif.stats.snapshot()
        cache_hits_before = oif.decoded_cache.hits
        cache_misses_before = oif.decoded_cache.misses
        contexts: list[ReadContext] = []
        contexts_lock = threading.Lock()
        failures: list[str] = []
        barrier = threading.Barrier(THREADS)

        def worker(thread_index: int) -> None:
            rng = random.Random(2000 + thread_index)
            order = list(range(len(queries)))
            rng.shuffle(order)
            barrier.wait(timeout=30.0)
            for query_index in order:
                cursor = oif.execute(queries[query_index])
                ids = sorted(cursor.fetch_all())
                if ids != serial_ids[query_index]:
                    failures.append(f"query {query_index}: ids diverge under eviction")
                with contexts_lock:
                    contexts.append(cursor.ctx)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads), "stress run hung"
        assert failures == []

        total = oif.stats.snapshot() - before
        assert sum(ctx.page_reads for ctx in contexts) == total.page_reads
        assert sum(ctx.logical_reads for ctx in contexts) == total.logical_reads
        assert sum(ctx.cache_hits for ctx in contexts) == total.cache_hits
        assert sum(ctx.random_reads for ctx in contexts) == total.random_reads
        assert sum(ctx.sequential_reads for ctx in contexts) == total.sequential_reads
        for ctx in contexts:
            assert ctx.random_reads + ctx.sequential_reads == ctx.page_reads

        # Decoded-block cache counters are exact under the same interleaving:
        # per-context lookups sum to the pool totals and to the cache's own
        # counters (every lookup is recorded under the cache's lock).
        assert (
            sum(ctx.decoded_hits for ctx in contexts)
            == total.decoded_hits
            == oif.decoded_cache.hits - cache_hits_before
        )
        assert (
            sum(ctx.decoded_misses for ctx in contexts)
            == total.decoded_misses
            == oif.decoded_cache.misses - cache_misses_before
        )

    def test_decoded_cache_hits_never_change_page_accounting(self):
        """Concurrent repeats of one query: decode skipped, I/O identical."""
        dataset = _dataset(seed=23)
        oif = OrderedInvertedFile(dataset, cache_bytes=1 << 22)
        queries = _mixed_queries(dataset, count=12, seed=37)
        self_serial = []
        for expr in queries:  # cold pass: populates pool and decoded cache
            oif.execute(expr).fetch_all()
        for expr in queries:  # warmed serial baseline
            cursor = oif.execute(expr)
            ids = sorted(cursor.fetch_all())
            self_serial.append((ids, cursor.io_delta()))
        # Warmed + eviction-free: every traversal's decode lookups all hit.
        assert all(delta.decoded_misses == 0 for _, delta in self_serial)
        assert any(delta.decoded_hits > 0 for _, delta in self_serial)

        failures: list[str] = []
        barrier = threading.Barrier(THREADS)

        def worker(thread_index: int) -> None:
            rng = random.Random(3000 + thread_index)
            order = list(range(len(queries)))
            rng.shuffle(order)
            barrier.wait(timeout=30.0)
            for query_index in order:
                cursor = oif.execute(queries[query_index])
                ids = sorted(cursor.fetch_all())
                expected_ids, expected_delta = self_serial[query_index]
                if ids != expected_ids:
                    failures.append(f"query {query_index}: ids diverge")
                if cursor.io_delta() != expected_delta:
                    failures.append(
                        f"query {query_index}: {cursor.io_delta()} != {expected_delta}"
                    )

        pool = [threading.Thread(target=worker, args=(n,)) for n in range(THREADS)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in pool), "stress run hung"
        assert failures == []


class TestConcurrentUpdatableHandle:
    def test_readers_run_during_each_other_and_inserts_are_exclusive(self):
        dataset = _dataset(num_records=120)
        handle = UpdatableOIF(dataset)
        item = sorted(dataset.vocabulary, key=str)[0]
        base_ids = handle.evaluate(Subset({item}))

        stop = threading.Event()
        failures: list[str] = []

        def reader() -> None:
            while not stop.is_set():
                ids = handle.evaluate(Subset({item}))
                # Subset answers only grow under inserts; a torn read would
                # show ids outside both the pre- and post-insert answers.
                if not set(base_ids) <= set(ids):
                    failures.append("reader saw a torn answer")
                    return

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        inserted: list[int] = []
        for _ in range(10):
            inserted.extend(handle.insert([{item, "fresh"}]))
        handle.flush()
        stop.set()
        for thread in readers:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in readers)
        assert failures == []
        final = handle.evaluate(Subset({item}))
        assert set(base_ids) | set(inserted) == set(final)


class TestServiceReadPath:
    @pytest.fixture()
    def manager(self):
        manager = IndexManager(result_cache=ResultCache(capacity=256))
        manager.create("paper", _dataset(), kind="oif")
        return manager

    def test_query_path_holds_only_the_read_side(self, manager):
        """A reader-held entry still answers queries; a write waits."""
        entry = manager.get("paper")
        entry.lock.acquire_read()
        try:
            done = threading.Event()
            answers: list = []

            def query() -> None:
                answers.append(entry.evaluate(leaf_for("subset", {"i0"})))
                done.set()

            thread = threading.Thread(target=query)
            thread.start()
            assert done.wait(timeout=10.0), (
                "a concurrent query must not block on a held read lock"
            )
            thread.join(timeout=5.0)

            blocked = threading.Event()

            def insert() -> None:
                manager.insert("paper", [["i0", "i1"]])
                blocked.set()

            writer = threading.Thread(target=insert)
            writer.start()
            writer.join(timeout=0.2)
            assert not blocked.is_set(), "insert must wait for readers to drain"
        finally:
            entry.lock.release_read()
        writer.join(timeout=10.0)
        assert blocked.is_set()

    def test_saturated_executor_answers_concurrent_sharded_queries(self):
        """Regression: shared-pool fan-out must not deadlock under load."""
        manager = IndexManager()
        manager.create("s", _dataset(), kind="oif", shards=4)
        queries = _mixed_queries(manager.get("s")._handle.dataset, count=12)
        with QueryExecutor(manager, cache=None, max_workers=2) as executor:
            futures = [executor.submit_expr("s", expr) for expr in queries]
            outcomes = [future.result(timeout=60.0) for future in futures]
        oracle = manager.get("s")
        for expr, outcome in zip(queries, outcomes):
            assert list(outcome.record_ids) == oracle.evaluate(expr)
            assert outcome.shard_stats is not None
            assert outcome.page_accesses == sum(
                stat.page_accesses for stat in outcome.shard_stats
            )

    def test_sharded_execute_honours_a_caller_context(self):
        """The base execute() contract — pre-owned ctx — holds for shards too."""
        from repro.core.shard import ShardedIndex

        dataset = _dataset(num_records=100)
        sharded = ShardedIndex(dataset, num_shards=3)
        sharded.drop_cache()  # the build leaves every page resident
        expr = Subset(frozenset(["i0"]))
        ctx = ReadContext()
        cursor = sharded.execute(expr, ctx=ctx)
        ids = sorted(cursor.fetch_all())
        assert ids == sorted(sharded.evaluate(expr))
        # The shared context holds the whole fan-out's charge, and io_delta
        # reads it once (no per-shard double counting).
        assert ctx.page_reads > 0
        assert cursor.io_delta() == ctx.snapshot()

    def test_outcome_carries_per_context_read_classification(self, manager):
        with QueryExecutor(manager, cache=None, max_workers=2) as executor:
            outcome = executor.execute_expr("paper", Subset(frozenset(["i0"])))
            stats = executor.stats.as_dict()
        assert outcome.random_reads + outcome.sequential_reads == outcome.page_accesses
        assert stats["random_reads"] == outcome.random_reads
        assert stats["sequential_reads"] == outcome.sequential_reads
        payload = outcome.as_dict()
        assert payload["random_reads"] == outcome.random_reads
        assert payload["sequential_reads"] == outcome.sequential_reads


class _BuildGate:
    """Holds the first index construction after arming until released.

    Patched onto the index class's ``__init__``, so it catches a rebuild's
    build wherever the build is started from.  Only the first construction
    (in any thread) blocks: a flush that builds while the rebuild is held
    goes straight through.
    """

    def __init__(self, monkeypatch, index_class) -> None:
        self.reached = threading.Event()
        self.release = threading.Event()
        self._lock = threading.Lock()
        original = index_class.__init__
        gate = self

        def gated(index, *args, **kwargs):
            with gate._lock:
                first = not gate.reached.is_set()
                gate.reached.set()
            if first:
                gate.release.wait(timeout=60.0)
            original(index, *args, **kwargs)

        monkeypatch.setattr(index_class, "__init__", gated)


REBUILD_CASES = [
    pytest.param("oif", {}, False, id="oif"),
    pytest.param("oif", {}, True, id="oif-durable"),
    pytest.param("if", {}, False, id="if"),
    pytest.param("oif", {"shards": 2}, False, id="sharded-oif"),
    pytest.param("oif", {"shards": 2}, True, id="sharded-oif-durable"),
]


class TestRebuildRacingWrites:
    """Writes that land while a rebuild's build is held survive the swap."""

    @staticmethod
    def _assert_matches_model(handle, model: dict) -> None:
        from repro.baselines import NaiveScanIndex

        live = handle.live_dataset()
        assert {record.record_id: record.items for record in live} == model
        oracle = NaiveScanIndex(live)
        queries = _mixed_queries(live, count=24) + [
            leaf_for(query_type, {item})
            for query_type in ("subset", "equality", "superset")
            for item in ("pre", "raced-a", "raced-b", "raced-late", "i0")
        ]
        for expr in queries:
            assert handle.evaluate(expr) == oracle.evaluate(expr), expr

    @pytest.mark.parametrize(("kind", "options", "durable"), REBUILD_CASES)
    def test_writes_racing_a_held_build_survive_the_swap(
        self, monkeypatch, tmp_path, kind, options, durable
    ):
        from repro.baselines import InvertedFile
        from repro.durability import open_index

        dataset = _dataset(num_records=200)
        data_dir = str(tmp_path / "data") if durable else None
        manager = IndexManager(data_dir=data_dir, fsync="never")
        entry = manager.create("race", dataset, kind=kind, **options)
        model = {record.record_id: record.items for record in dataset}
        issued = set(model)

        def insert(*transactions) -> list[int]:
            ids = entry.insert(transactions)
            for record_id, items in zip(ids, transactions):
                model[record_id] = frozenset(items)
            assert issued.isdisjoint(ids), "an id was handed out twice"
            issued.update(ids)
            return ids

        def delete(*record_ids) -> None:
            entry.delete(record_ids)
            for record_id in record_ids:
                del model[record_id]

        pending = insert({"i0", "pre"})  # buffered when the snapshot is taken
        gate = _BuildGate(monkeypatch, InvertedFile if kind == "if" else OrderedInvertedFile)
        failures: list[BaseException] = []

        def rebuild() -> None:
            try:
                manager.rebuild("race")
            except BaseException as error:  # pragma: no cover - failure path
                failures.append(error)

        builder = threading.Thread(target=rebuild)
        builder.start()
        try:
            assert gate.reached.wait(timeout=30.0), "the rebuild never started its build"
            raced = insert({"i1", "raced-a"}, {"i2", "i3", "raced-b"})
            delete(list(dataset)[5].record_id)  # a base record
            delete(*pending)  # a record still pending at the snapshot
            delete(*insert({"i4", "raced-gone"}))  # an insert and its delete
            entry.flush()
            if durable:
                entry.checkpoint()
            late = insert({"i5", "raced-late"})
            assert builder.is_alive(), "the writes must land while the build is held"
        finally:
            gate.release.set()
            builder.join(timeout=60.0)
        assert not builder.is_alive(), "the rebuild hung"
        assert failures == []

        for record_id, item in zip(raced + late, ("raced-a", "raced-b", "raced-late")):
            assert entry.evaluate(leaf_for("subset", {item})) == [record_id]
        self._assert_matches_model(entry._handle, model)
        after = insert({"i6", "after"})
        self._assert_matches_model(entry._handle, model)
        assert after[0] > max(issued - set(after))

        if durable:
            manager.close(checkpoint=False)
            reopened = open_index(str(tmp_path / "data" / "race"))
            try:
                self._assert_matches_model(reopened, model)
            finally:
                reopened.close()
