"""Multiprocess shard backend: equivalence, accounting and fault recovery.

The process backend must be observationally identical to in-process fan-out —
same result ids, same per-shard page counts (the paper's cost metric) and the
same ``sum(contexts) == totals`` accounting invariant — while its workers run
in separate interpreters.  Hypothesis drives random datasets and expression
shapes through both backends on twin indexes; dedicated tests cover the
``limit`` early-stop pushdown, pending-delta evaluation through the
updatable wrapper, the shared-memory result path and worker-crash recovery
(kill -9 mid-pool: the in-flight query fails loudly, the pool respawns, the
next query answers correctly).
"""

from __future__ import annotations

import os
import signal
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Dataset
from repro.core.query import And, Equality, Limit, Not, Or, Subset, Superset
from repro.core.shard import ShardProcessPool, ShardedIndex
from repro.core.updates import UpdatableShardedOIF
from repro.errors import QueryError

ITEMS = list("abcdefgh")

transactions_strategy = st.lists(
    st.sets(st.sampled_from(ITEMS), min_size=1, max_size=4),
    min_size=1,
    max_size=25,
)

items_strategy = st.sets(st.sampled_from(ITEMS + ["zz"]), min_size=1, max_size=3).map(
    frozenset
)

leaf_strategy = st.one_of(
    st.builds(Subset, items_strategy),
    st.builds(Equality, items_strategy),
    st.builds(Superset, items_strategy),
)

expr_strategy = st.recursive(
    leaf_strategy,
    lambda children: st.one_of(
        st.lists(children, min_size=1, max_size=3).map(lambda cs: And(tuple(cs))),
        st.lists(children, min_size=1, max_size=3).map(lambda cs: Or(tuple(cs))),
        st.builds(Not, children),
    ),
    max_leaves=4,
)

limit_strategy = st.one_of(
    st.none(),
    st.tuples(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=4)),
)

# Worker spawn dominates each example (two fresh interpreters), so the
# example budget is deliberately small; the expression/limit space inside
# each example is what varies cheaply.
relaxed = settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _twins(transactions, num_shards=3):
    """Identical threaded and process-backed indexes over one dataset."""
    dataset = Dataset.from_transactions(transactions)
    threaded = ShardedIndex(dataset, num_shards, catalog_pages=True)
    procs = ShardedIndex(dataset, num_shards, catalog_pages=True)
    pool = ShardProcessPool(procs, 2)
    procs.attach_process_pool(pool)
    return threaded, procs, pool


def _drop_all(threaded, procs, pool):
    """Cold caches on both sides so page counts are comparable bit for bit."""
    threaded.drop_cache()
    procs.drop_cache()
    pool.drop_caches()


@relaxed
@given(
    transactions=transactions_strategy,
    exprs=st.lists(expr_strategy, min_size=1, max_size=4),
    limit=limit_strategy,
)
def test_process_backend_matches_threaded(transactions, exprs, limit):
    threaded, procs, pool = _twins(transactions)
    try:
        for expr in exprs:
            if limit is not None:
                count, offset = limit
                expr = Limit(expr, count=count, offset=offset)

            # fanout_evaluate: ids, per-shard page counts and kinds identical.
            _drop_all(threaded, procs, pool)
            t_ids, t_stats = threaded.fanout_evaluate(expr)
            before = procs.io_snapshot()
            p_ids, p_stats = procs.fanout_evaluate(expr)
            assert list(p_ids) == list(t_ids)
            assert [
                (s.shard, s.matches, s.page_accesses, s.random_reads, s.sequential_reads)
                for s in p_stats
            ] == [
                (s.shard, s.matches, s.page_accesses, s.random_reads, s.sequential_reads)
                for s in t_stats
            ]
            # The workers' I/O lands in the parent's totals: the paper's
            # page-access accounting survives the process boundary exactly.
            delta = procs.io_snapshot() - before
            assert delta.page_reads == sum(s.page_accesses for s in p_stats)

            # Streaming execute: the merged production-order stream (and the
            # limit early-stop prefix) is byte-identical too.
            _drop_all(threaded, procs, pool)
            assert list(procs.execute(expr)) == list(threaded.execute(expr))
    finally:
        pool.close()


@relaxed
@given(
    transactions=transactions_strategy,
    inserts=st.lists(
        st.sets(st.sampled_from(ITEMS), min_size=1, max_size=4), min_size=1, max_size=5
    ),
    expr=expr_strategy,
)
def test_pending_delta_matches_threaded(transactions, inserts, expr):
    dataset = Dataset.from_transactions(transactions)
    twin = UpdatableShardedOIF(dataset, 3, catalog_pages=True)
    up = UpdatableShardedOIF(dataset, 3, catalog_pages=True)
    pool = ShardProcessPool(up.index, 2)
    up.attach_process_pool(pool)
    try:
        assert up.insert(inserts) == twin.insert(inserts)
        doomed = twin.evaluate(Subset(frozenset(list(transactions[0])[:1])))[:1]
        if doomed:
            up.delete(doomed)
            twin.delete(doomed)

        # Pending deltas and tombstones merge in the parent; workers only
        # ever see base shards.
        r_t, _ = twin.evaluate_detail(expr)
        r_p, _ = up.evaluate_detail(expr)
        assert r_p == r_t
        limited = Limit(expr, count=3, offset=1)
        assert up.evaluate(limited) == twin.evaluate(limited)

        # A flush rebuilds the affected shards and re-images them into the
        # pool; answers keep matching afterwards.
        twin.flush()
        up.flush()
        r_t2, _ = twin.evaluate_detail(expr)
        r_p2, _ = up.evaluate_detail(expr)
        assert r_p2 == r_t2
    finally:
        pool.close()


def _build_pool(num_shards=4, num_workers=2, **pool_kwargs):
    transactions = [
        {ITEMS[i % len(ITEMS)], ITEMS[(i * 3 + 1) % len(ITEMS)]} for i in range(64)
    ]
    dataset = Dataset.from_transactions(transactions)
    index = ShardedIndex(dataset, num_shards, catalog_pages=True)
    pool = ShardProcessPool(index, num_workers, **pool_kwargs)
    index.attach_process_pool(pool)
    return index, pool


def test_shared_memory_result_path():
    # threshold=1 forces every non-empty result column through shm; the ids
    # must come back unchanged and the segment must be unlinked (no resource
    # tracker leak warnings on interpreter exit).
    index, pool = _build_pool(shm_threshold=1)
    try:
        expr = Subset(frozenset({ITEMS[0]}))
        via_shm, _ = index.fanout_evaluate(expr)
        index.detach_process_pool()
        inline, _ = index.fanout_evaluate(expr)
        assert list(via_shm) == list(inline)
    finally:
        pool.close()


def test_killed_worker_fails_query_and_pool_recovers():
    index, pool = _build_pool()
    try:
        expr = Subset(frozenset({ITEMS[1]}))
        expected, _ = index.fanout_evaluate(expr)
        pids = pool.worker_pids()
        os.kill(pids[0], signal.SIGKILL)
        deadline = time.monotonic() + 30
        with pytest.raises(QueryError, match="died mid-query|unavailable"):
            # The kill may need a beat to reach the executor; the query must
            # fail with a clear error either way — never hang.
            while time.monotonic() < deadline:
                index.fanout_evaluate(expr)
        # Recovery: the slot was respawned over the same images and the next
        # query answers exactly as before the crash.
        again, _ = index.fanout_evaluate(expr)
        assert list(again) == list(expected)
        fresh_pids = pool.worker_pids()
        assert fresh_pids[0] != pids[0]
        assert len(fresh_pids) == len(pids)
    finally:
        pool.close()


def test_worker_respawn_preserves_refreshed_shards():
    dataset = Dataset.from_transactions([{ITEMS[i % 4]} for i in range(32)])
    up = UpdatableShardedOIF(dataset, 4, catalog_pages=True)
    pool = ShardProcessPool(up.index, 2)
    up.attach_process_pool(pool)
    try:
        up.insert([{ITEMS[0], ITEMS[5]}])
        up.flush()  # re-images the rebuilt shard(s)
        expr = Subset(frozenset({ITEMS[0]}))
        expected, _ = up.evaluate_detail(expr)
        pids = pool.worker_pids()
        os.kill(pids[1], signal.SIGKILL)
        with pytest.raises(QueryError):
            up.evaluate_detail(expr)
        # The respawned worker reopened the *refreshed* images, not stale ones.
        after, _ = up.evaluate_detail(expr)
        assert after == expected
    finally:
        pool.close()


def test_process_backend_requires_catalog_envs():
    dataset = Dataset.from_transactions([{"a", "b"}, {"b", "c"}])
    index = ShardedIndex(dataset, 2)  # plain in-memory envs, no page catalog
    with pytest.raises(QueryError, match="catalog"):
        ShardProcessPool(index, 1)


def test_process_backend_requires_index_options():
    dataset = Dataset.from_transactions([{"a", "b"}, {"b", "c"}])
    from repro.core import OrderedInvertedFile

    index = ShardedIndex(
        dataset, 2, factory=lambda ds: OrderedInvertedFile(ds, catalog_pages=True)
    )
    with pytest.raises(QueryError, match="options"):
        ShardProcessPool(index, 1)
    # An explicit options= unblocks the custom-factory case.
    pool = ShardProcessPool(index, 1, options={"catalog_pages": True})
    index.attach_process_pool(pool)
    try:
        mono = OrderedInvertedFile(dataset)
        expr = Subset(frozenset({"b"}))
        ids, _ = index.fanout_evaluate(expr)
        assert list(ids) == mono.evaluate(expr)
    finally:
        pool.close()
