"""Tests for the concurrent query executor: correctness, caching, dedup."""

from __future__ import annotations

import threading

import pytest

import random

from repro.core import Dataset
from repro.core.query.expr import leaf_for
from repro.errors import QueryError, ServiceError
from repro.service import IndexManager, QueryExecutor, ResultCache
from repro.service.executor import QueryRequest


def sample_queries(dataset: Dataset, count: int, max_size: int, seed: int) -> list[frozenset]:
    """Query sets drawn from existing records (the paper's methodology)."""
    rng = random.Random(seed)
    records = list(dataset)
    queries = []
    for _ in range(count):
        record = rng.choice(records)
        size = rng.randint(1, min(max_size, record.length))
        queries.append(frozenset(rng.sample(sorted(record.items, key=str), size)))
    return queries


@pytest.fixture()
def dataset(paper_dataset: Dataset) -> Dataset:
    """The paper's Figure 1 relation (ids 101..118), shared session-wide."""
    return paper_dataset


@pytest.fixture()
def serving(dataset):
    cache = ResultCache(capacity=256)
    manager = IndexManager(result_cache=cache)
    manager.create("paper", dataset, kind="oif")
    with QueryExecutor(manager, cache=cache, max_workers=4) as executor:
        yield manager, cache, executor


def test_execute_answers_match_the_oracle(serving, paper_oracle):
    _, _, executor = serving
    for query_type in ("subset", "equality", "superset"):
        outcome = executor.execute_expr("paper", leaf_for(query_type, {"a", "b"}))
        assert list(outcome.record_ids) == paper_oracle.evaluate(leaf_for(query_type, {"a", "b"}))
        assert outcome.query_type.value == query_type
        assert outcome.latency_ms >= 0.0


def test_empty_query_is_rejected(serving):
    _, _, executor = serving
    with pytest.raises(QueryError, match="non-empty query set"):
        executor.execute_expr("paper", leaf_for("subset", set()))
    with pytest.raises(ServiceError, match="needs an expression"):
        executor.execute_expr("paper", ("subset", {"a"}))


def test_unknown_index_raises_through_the_future(serving):
    _, _, executor = serving
    with pytest.raises(ServiceError, match="no index named"):
        executor.execute_expr("ghost", leaf_for("subset", {"a"}))
    assert executor.stats.errors == 1


def test_cache_hit_and_miss_accounting_is_exact(serving):
    _, cache, executor = serving
    first = executor.execute_expr("paper", leaf_for("subset", {"a", "b"}))
    assert first.cached is False
    repeats = 5
    for _ in range(repeats):
        again = executor.execute_expr("paper", leaf_for("subset", {"a", "b"}))
        assert again.cached is True
        assert again.record_ids == first.record_ids
        assert again.page_accesses == 0
    stats = executor.stats.as_dict()
    assert stats["queries"] == repeats + 1
    assert stats["cache_hits"] == repeats
    assert stats["executed"] == 1
    assert cache.stats()["hits"] == repeats
    # One miss from the first lookup only — hits never re-probe the index.
    assert cache.stats()["misses"] == 1


def test_update_invalidates_cached_result_and_recomputes(serving, dataset):
    manager, _, executor = serving
    before = executor.execute_expr("paper", leaf_for("subset", {"a", "b"}))
    assert executor.execute_expr("paper", leaf_for("subset", {"a", "b"})).cached is True

    (new_id,) = manager.insert("paper", [{"a", "b", "fresh"}])

    after = executor.execute_expr("paper", leaf_for("subset", {"a", "b"}))
    assert after.cached is False, "the insert must invalidate the cached entry"
    assert set(after.record_ids) == set(before.record_ids) | {new_id}
    # An unrelated entry keeps serving from cache after the update.
    executor.execute_expr("paper", leaf_for("superset", {"d", "h"}))
    assert executor.execute_expr("paper", leaf_for("superset", {"d", "h"})).cached is True


def test_batch_of_100_queries_matches_oracle(serving, dataset, paper_oracle):
    _, _, executor = serving
    queries = sample_queries(dataset, count=100, max_size=3, seed=42)
    outcomes = executor.execute_batch(
        [QueryRequest.of("paper", leaf_for("subset", items)) for items in queries]
    )
    assert len(outcomes) == 100
    for items, outcome in zip(queries, outcomes):
        assert outcome.items == items, "results must come back in request order"
        assert list(outcome.record_ids) == paper_oracle.evaluate(leaf_for("subset", items))
    assert executor.stats.queries == 100


def test_identical_inflight_queries_are_deduplicated(dataset):
    """Without a cache, concurrent identical queries share one evaluation."""
    manager = IndexManager()
    entry = manager.create("paper", dataset, kind="oif")
    release = threading.Event()
    original_measured = entry.measured_expr
    evaluations = []

    def slow_measured(expr, fanout_pool=None):
        evaluations.append(expr)
        release.wait(timeout=5.0)
        return original_measured(expr, fanout_pool=fanout_pool)

    entry.measured_expr = slow_measured
    with QueryExecutor(manager, cache=None, max_workers=4) as executor:
        futures = [executor.submit_expr("paper", leaf_for("subset", {"a", "b"})) for _ in range(6)]
        release.set()
        outcomes = [future.result(timeout=10.0) for future in futures]

    assert len(evaluations) == 1, "identical in-flight queries must evaluate once"
    assert sum(1 for outcome in outcomes if not outcome.deduplicated) == 1
    assert sum(1 for outcome in outcomes if outcome.deduplicated) == 5
    results = {outcome.record_ids for outcome in outcomes}
    assert len(results) == 1
    assert executor.stats.dedup_hits == 5
    assert executor.stats.executed == 1


def test_concurrent_mixed_queries_from_many_threads(serving, dataset, paper_oracle):
    _, _, executor = serving
    queries = sample_queries(dataset, count=30, max_size=3, seed=7)
    expected = {
        (query_type, items): paper_oracle.evaluate(leaf_for(query_type, items))
        for items in queries
        for query_type in ("subset", "equality", "superset")
    }
    errors: list[BaseException] = []

    def worker() -> None:
        try:
            for items in queries:
                for query_type in ("subset", "equality", "superset"):
                    outcome = executor.execute_expr("paper", leaf_for(query_type, items))
                    assert list(outcome.record_ids) == expected[(query_type, items)]
        except BaseException as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [threading.Thread(target=worker) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    stats = executor.stats.as_dict()
    assert stats["queries"] == 6 * 30 * 3
    assert stats["cache_hits"] + stats["dedup_hits"] + stats["executed"] == stats["queries"]
    # Every distinct (type, items) pair is evaluated at most once thanks to
    # the cache; everything else is a hit or an in-flight dedup.
    assert stats["executed"] <= len(expected)


def test_drop_prevents_stale_cache_population(dataset):
    """A worker holding a reference to a dropped index must not cache results.

    Simulates the race where an evaluation resolved its ManagedIndex just
    before the drop: the entry's ``dropped`` flag (set under the entry lock)
    makes the evaluation fail instead of re-populating the cache under a name
    that may be reused by a different dataset.
    """
    cache = ResultCache(capacity=16)
    manager = IndexManager(result_cache=cache)
    entry = manager.create("victim", dataset, kind="oif")
    manager.drop("victim")
    assert entry.dropped is True
    manager.get = lambda name: entry  # stale resolution, as a racing worker saw it
    with QueryExecutor(manager, cache=cache, max_workers=1) as executor:
        with pytest.raises(ServiceError, match="no index named"):
            executor.execute_expr("victim", leaf_for("subset", {"a"}))
    assert len(cache) == 0, "the dropped index must not leave cache entries behind"


def test_submit_after_shutdown_is_rejected(dataset):
    manager = IndexManager()
    manager.create("paper", dataset, kind="oif")
    executor = QueryExecutor(manager, max_workers=1)
    executor.shutdown()
    with pytest.raises(ServiceError, match="shut down"):
        executor.submit_expr("paper", leaf_for("subset", {"a"}))


def test_worker_count_must_be_positive(dataset):
    manager = IndexManager()
    with pytest.raises(ServiceError, match="worker"):
        QueryExecutor(manager, max_workers=0)


def test_executor_adopts_the_managers_cache_and_rejects_a_split_pair(dataset):
    cache = ResultCache(capacity=8)
    manager = IndexManager(result_cache=cache)
    manager.create("paper", dataset, kind="oif")
    with QueryExecutor(manager) as executor:       # no cache passed: adopt
        assert executor.cache is cache
        executor.execute_expr("paper", leaf_for("subset", {"a"}))
        assert executor.execute_expr("paper", leaf_for("subset", {"a"})).cached is True
    with pytest.raises(ServiceError, match="must be the manager's result_cache"):
        QueryExecutor(manager, cache=ResultCache(capacity=8))


def test_executor_binds_its_cache_to_a_cacheless_manager(dataset):
    """Passing a cache to an executor over a cache-less manager wires the
    manager's invalidation to that cache instead of silently splitting them."""
    manager = IndexManager()
    manager.create("paper", dataset, kind="oif")
    cache = ResultCache(capacity=8)
    with QueryExecutor(manager, cache=cache) as executor:
        assert manager.result_cache is cache
        before = executor.execute_expr("paper", leaf_for("subset", {"a", "b"}))
        assert executor.execute_expr("paper", leaf_for("subset", {"a", "b"})).cached is True
        (new_id,) = manager.insert("paper", [{"a", "b", "bound"}])
        after = executor.execute_expr("paper", leaf_for("subset", {"a", "b"}))
        assert after.cached is False
        assert set(after.record_ids) == set(before.record_ids) | {new_id}
