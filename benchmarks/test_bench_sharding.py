"""Shard-scaling benchmark: build, query fan-out, early-stop and merge cost.

The partition-aware index trades a per-shard fixed cost (every shard answers
every query) for three wins this benchmark quantifies at 1/2/4/8 shards:

* **build** — each shard sorts and bulk-loads a fraction of the data (the
  super-linear parts of construction shrink; threaded builds are still
  GIL-bound for the CPU parts — the process backend below sidesteps that);
* **pruning preserved** — aggregate data-page reads per query grow far more
  slowly than the shard count: every shard still prunes with its own
  metadata/ROI machinery;
* **early-stop preserved** — a ``limit k`` over the merged cursor reads
  fewer pages than draining either the sharded or the single-shard index;
* **merge cost** — flushing a small delta batch rebuilds only the affected
  shards, beating the monolithic full rebuild wall-clock.

A second sweep compares the two shard *execution backends*: in-process
fan-out, which runs the shards one after another on the querying thread,
versus the multiprocess backend (:mod:`repro.core.shard.procpool`) at
1/2/4/8 workers, which ships queries to worker interpreters and returns
columnar id buffers.  Results and per-shard page counts must be
bit-identical between backends at every scale.  Two CPU assertions need
full-size posting lists and real cores: the backend's keep rule (processes
at 2 workers at least 1.5x faster than in-process, >= 2 usable cores) and
the 2.5x floor at 4 workers (>= 4 usable cores).

Small (1 KB) pages keep the page-access signal visible at benchmark scale.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core import OrderedInvertedFile, ShardedIndex
from repro.core.query import Subset
from repro.core.shard import ShardProcessPool
from repro.core.updates import UpdatableOIF, UpdatableShardedOIF
from repro.datasets.synthetic import SyntheticConfig
from repro.experiments import cache as build_cache
from repro.experiments.report import ResultTable
from repro.experiments.runner import ExperimentRunner
from repro.workloads.queries import WorkloadGenerator

from conftest import BENCH_SCALE, save_tables, scaled

SHARD_COUNTS = (1, 2, 4, 8)
SHARDING_CONFIG = SyntheticConfig(
    num_records=scaled(20_000), domain_size=500, zipf_order=0.8, seed=7
)
PAGE_SIZE = 1024
LIMIT_K = 10
#: Small delta batch: the per-shard merge should rebuild a *fraction* of the
#: shards, which is exactly the effect the update experiment measures.
UPDATE_BATCH = 4


@pytest.fixture(scope="module")
def dataset():
    return build_cache.synthetic_dataset(SHARDING_CONFIG)


def build_index(dataset, num_shards: int):
    """The single-shard path is the plain OIF; sharded builds fan out."""
    if num_shards == 1:
        return OrderedInvertedFile(dataset, page_size=PAGE_SIZE)
    return ShardedIndex(
        dataset, num_shards, max_workers=num_shards, page_size=PAGE_SIZE
    )


@pytest.fixture(scope="module")
def hot_items(dataset):
    """The most page-expensive frequent items on the single-shard index."""
    index = build_index(dataset, 1)
    vocabulary = dataset.vocabulary
    by_support = sorted(vocabulary, key=vocabulary.support, reverse=True)
    costs = []
    for item in by_support[:10]:
        index.drop_cache()
        result = index.measured_execute(Subset(frozenset([item])))
        costs.append((result.page_accesses, str(item), item))
    costs.sort(reverse=True)
    return [item for _, _, item in costs[:3]]


def run_hot_queries(index, hot_items, limit: "int | None") -> tuple[int, float]:
    """Drain (or limit) the hot items' lists cold; aggregate (pages, seconds)."""
    pages = 0
    started = time.perf_counter()
    for item in hot_items:
        expr = Subset(frozenset([item]))
        if limit is not None:
            expr = expr.limit(limit)
        index.drop_cache()
        pages += index.measured_execute(expr).page_accesses
    return pages, time.perf_counter() - started


@pytest.fixture(scope="module")
def sharding_table(dataset, hot_items):
    generator = WorkloadGenerator(dataset, seed=17)
    workload = generator.workload("subset", (1, 2, 3), 5)
    runner = ExperimentRunner(drop_cache_per_query=True)
    table = ResultTable(
        title=(
            f"Shard scaling over {len(dataset)} records "
            f"({PAGE_SIZE} B pages, limit k={LIMIT_K}, "
            f"update batch={UPDATE_BATCH})"
        ),
        columns=[
            "shards", "build_s", "query_pages", "query_io_ms",
            "hot_full_pages", "hot_limit_pages", "flush_s", "shards_rebuilt",
        ],
    )
    reference_ids = None
    for num_shards in SHARD_COUNTS:
        started = time.perf_counter()
        index = build_index(dataset, num_shards)
        build_seconds = time.perf_counter() - started

        run = runner.run_workload(index, workload)
        overall = run.overall()
        answers = index.evaluate(Subset(frozenset([hot_items[0]])))
        if reference_ids is None:
            reference_ids = answers
        assert answers == reference_ids, "sharding must not change any answer"

        hot_full_pages, _ = run_hot_queries(index, hot_items, limit=None)
        hot_limit_pages, _ = run_hot_queries(index, hot_items, limit=LIMIT_K)

        transactions = [sorted(record.items) for record in list(dataset)[:UPDATE_BATCH]]
        if num_shards == 1:
            updatable = UpdatableOIF(dataset, page_size=PAGE_SIZE)
        else:
            updatable = UpdatableShardedOIF(
                dataset, num_shards, max_workers=num_shards, page_size=PAGE_SIZE
            )
        updatable.insert(transactions)
        started = time.perf_counter()
        if num_shards == 1:
            updatable.flush()
            rebuilt = 1
        else:
            before = [updatable.index.shard_at(i) for i in range(num_shards)]
            updatable.flush()
            rebuilt = sum(
                1
                for i in range(num_shards)
                if updatable.index.shard_at(i) is not before[i]
            )
        flush_seconds = time.perf_counter() - started

        table.add_row(
            shards=num_shards,
            build_s=build_seconds,
            query_pages=overall.mean_page_accesses,
            query_io_ms=overall.mean_io_ms,
            hot_full_pages=hot_full_pages,
            hot_limit_pages=hot_limit_pages,
            flush_s=flush_seconds,
            shards_rebuilt=rebuilt,
        )
    table.add_note(
        "query_pages: mean aggregate data-page reads per subset query (cold cache); "
        "pruning is preserved when it grows sublinearly in the shard count"
    )
    table.add_note(
        "flush_s: merging a small delta batch — per-shard flushes rebuild only "
        "the affected shards (shards_rebuilt) instead of the whole index"
    )
    save_tables("shard_scaling", [table])
    return table


def rows_by_shards(table) -> dict:
    return {row["shards"]: row for row in table.rows}


def test_pruning_is_preserved_across_shards(sharding_table):
    """Aggregate page reads grow sublinearly in the shard count."""
    rows = rows_by_shards(sharding_table)
    base = rows[1]["query_pages"]
    for num_shards in SHARD_COUNTS[1:]:
        assert rows[num_shards]["query_pages"] < num_shards * base


@pytest.mark.skipif(BENCH_SCALE < 1, reason="page-signal needs full-size lists")
def test_limit_early_stop_survives_the_merge(sharding_table):
    """limit-k reads fewer pages than draining either index (criterion).

    Every shard count beats its own full drain; beating the *unsharded* full
    scan additionally requires the per-shard fixed cost (B-tree descent ×
    shard count) to stay below the avoided list pages, which holds while the
    shard count is small relative to ``k``.
    """
    rows = rows_by_shards(sharding_table)
    single_full = rows[1]["hot_full_pages"]
    for num_shards in SHARD_COUNTS[1:]:
        row = rows[num_shards]
        assert row["hot_limit_pages"] < row["hot_full_pages"]
    for num_shards in (2, 4):
        assert rows[num_shards]["hot_limit_pages"] < single_full


@pytest.mark.skipif(BENCH_SCALE < 1, reason="wall-clock is noise at smoke sizes")
def test_per_shard_flush_beats_the_monolithic_rebuild(sharding_table):
    """Merging a small batch rebuilds a fraction of the shards, and faster."""
    rows = rows_by_shards(sharding_table)
    mono = rows[1]["flush_s"]
    for num_shards in (4, 8):
        row = rows[num_shards]
        assert row["shards_rebuilt"] <= min(UPDATE_BATCH, num_shards)
        assert row["flush_s"] < mono


def test_build_at_8_shards(benchmark, dataset, sharding_table):
    benchmark.pedantic(build_index, args=(dataset, 8), rounds=2, iterations=1)


def test_build_single_shard(benchmark, dataset, sharding_table):
    benchmark.pedantic(build_index, args=(dataset, 1), rounds=2, iterations=1)


@pytest.mark.parametrize("num_shards", (1, 4))
def test_hot_limit_queries(benchmark, dataset, hot_items, sharding_table, num_shards):
    index = build_index(dataset, num_shards)
    benchmark.pedantic(
        run_hot_queries, args=(index, hot_items, LIMIT_K), rounds=3, iterations=1
    )


# --- execution-backend sweep: in-process vs processes ------------------------------
#
# The probes drain full posting lists of distinct frequent items with caches
# dropped before every query, so each shard task is dominated by v-byte
# decode — pure Python CPU that one interpreter runs serially but worker
# processes can run in parallel.

BACKEND_SHARDS = 8
WORKER_COUNTS = (1, 2, 4, 8)
BACKEND_ROUNDS = 3
BACKEND_PROBES = 6
BACKEND_CONFIG = SyntheticConfig(
    num_records=scaled(120_000), domain_size=300, zipf_order=0.8, seed=11
)
#: Cores this process may actually run on — the speedup assertion is
#: meaningless on hosts that cannot physically run 4 workers in parallel.
HOST_CPUS = min(os.cpu_count() or 1, len(os.sched_getaffinity(0)))


@pytest.fixture(scope="module")
def backend_dataset():
    return build_cache.synthetic_dataset(BACKEND_CONFIG)


def backend_probes(dataset):
    """Full drains of the most frequent items, one distinct item per probe
    (shared items would let the decoded-block cache shortcut later probes)."""
    vocabulary = dataset.vocabulary
    ranked = sorted(vocabulary, key=vocabulary.support, reverse=True)
    return [Subset(frozenset([item])) for item in ranked[:BACKEND_PROBES]]


def _cold(index, procpool=None):
    index.drop_cache()
    if procpool is not None:
        procpool.drop_caches()


def run_probe_batch(index, probes, procpool=None) -> float:
    """Aggregate fan-out seconds over the batch, caches dropped per probe
    (the drops stay outside the clock: both backends should be timed on the
    same work, not on their cache-reset plumbing)."""
    elapsed = 0.0
    for expr in probes:
        _cold(index, procpool)
        started = time.perf_counter()
        index.fanout_evaluate(expr)
        elapsed += time.perf_counter() - started
    return elapsed


def _stat_key(stats):
    return [
        (s.shard, s.matches, s.page_accesses, s.random_reads, s.sequential_reads)
        for s in stats
    ]


def assert_backends_bit_identical(index, pool, probes) -> int:
    """Ids, per-shard page counts and absorbed IO totals match exactly.

    The check toggles one index between backends (detach -> in-process,
    attach -> processes) so both answer from the very same shard layout.
    Returns the batch's aggregate page count for the results table.
    """
    total_pages = 0
    for expr in probes:
        index.detach_process_pool()
        _cold(index)
        i_ids, i_stats = index.fanout_evaluate(expr)
        index.attach_process_pool(pool)
        _cold(index, pool)
        before = index.io_snapshot()
        p_ids, p_stats = index.fanout_evaluate(expr)
        assert list(p_ids) == list(i_ids), "backends must return identical ids"
        assert _stat_key(p_stats) == _stat_key(i_stats), (
            "per-shard page accounting must survive the process boundary"
        )
        delta = index.io_snapshot() - before
        assert delta.page_reads == sum(s.page_accesses for s in p_stats)
        total_pages += sum(s.page_accesses for s in p_stats)
    return total_pages


@pytest.fixture(scope="module")
def backend_table(backend_dataset):
    probes = backend_probes(backend_dataset)
    index = ShardedIndex(
        backend_dataset,
        BACKEND_SHARDS,
        max_workers=BACKEND_SHARDS,
        page_size=PAGE_SIZE,
        catalog_pages=True,
    )
    table = ResultTable(
        title=(
            f"Shard execution backends over {len(backend_dataset)} records "
            f"({BACKEND_SHARDS} shards, {len(probes)} cold hot-item drains "
            f"per batch, best of {BACKEND_ROUNDS})"
        ),
        columns=["backend", "workers", "batch_ms", "speedup_x", "batch_pages", "spawn_s"],
    )

    def add_row(backend, workers, batch_s, pages, spawn_s, serial_s):
        table.add_row(
            backend=backend,
            workers=workers,
            batch_ms=batch_s * 1000.0,
            speedup_x=serial_s / batch_s,
            batch_pages=pages,
            spawn_s=spawn_s,
        )

    timings: dict[tuple[str, int], float] = {}
    pages_seen = set()
    run_probe_batch(index, probes)  # warm-up
    serial_s = min(run_probe_batch(index, probes) for _ in range(BACKEND_ROUNDS))
    _cold(index)
    _, stats = index.fanout_evaluate(probes[0])
    pages = sum(s.page_accesses for s in stats)
    timings[("in-process", 1)] = serial_s
    add_row("in-process", 1, serial_s, pages, 0.0, serial_s)
    pages_seen.add(pages)

    for workers in WORKER_COUNTS:
        started = time.perf_counter()
        pool = ShardProcessPool(index, workers)
        index.attach_process_pool(pool)
        spawn_s = time.perf_counter() - started
        try:
            # First touch after spawn loads the page images into the worker
            # interpreters — part of spawn cost, not steady-state query cost.
            run_probe_batch(index, probes, procpool=pool)
            best = min(
                run_probe_batch(index, probes, procpool=pool)
                for _ in range(BACKEND_ROUNDS)
            )
            _cold(index, pool)
            _, stats = index.fanout_evaluate(probes[0])
            pages = sum(s.page_accesses for s in stats)
            if workers == 4:
                assert_backends_bit_identical(index, pool, probes)
        finally:
            index.detach_process_pool()
            pool.close()
        timings[("processes", workers)] = best
        add_row("processes", workers, best, pages, spawn_s, serial_s)
        pages_seen.add(pages)

    assert len(pages_seen) == 1, "every backend/worker config must read the same pages"
    table.add_note(
        f"host: {HOST_CPUS} usable core(s) (os.cpu_count={os.cpu_count()}); "
        "CPU speedup at N workers needs >= N real cores — on a single-core "
        "host both backends serialize and only the IPC overhead is visible"
    )
    table.add_note(
        "speedup_x: relative to in-process fan-out (the querying thread runs "
        "every shard); batch_pages: aggregate page accesses of the first "
        "probe, identical across all configs (bit-identity is asserted per "
        "probe at workers=4)"
    )
    save_tables("shard_backend_scaling", [table])
    return table, timings


def test_backends_stay_bit_identical(backend_table):
    """The equivalence assertions inside the sweep ran (any scale)."""
    table, _ = backend_table
    assert {row["backend"] for row in table.rows} == {"in-process", "processes"}


@pytest.mark.skipif(BENCH_SCALE < 1, reason="wall-clock is noise at smoke sizes")
def test_process_overhead_is_bounded(backend_table):
    """Even with no spare cores, columnar IPC keeps the backend competitive."""
    _, timings = backend_table
    assert timings[("processes", 4)] <= timings[("in-process", 1)] * 1.75


@pytest.mark.skipif(BENCH_SCALE < 1, reason="CPU signal needs full-size lists")
@pytest.mark.skipif(HOST_CPUS < 2, reason="the keep rule needs >= 2 usable cores")
def test_process_backend_earns_its_keep_at_two_workers(backend_table):
    """The backend's keep-or-delete rule: >= 1.5x over in-process at 2 workers."""
    _, timings = backend_table
    assert timings[("processes", 2)] * 1.5 <= timings[("in-process", 1)]


@pytest.mark.skipif(BENCH_SCALE < 1, reason="CPU signal needs full-size lists")
@pytest.mark.skipif(HOST_CPUS < 4, reason="CPU scaling needs >= 4 usable cores")
def test_process_backend_beats_the_gil(backend_table):
    """>= 2.5x wall-clock at 4 process workers vs in-process fan-out."""
    _, timings = backend_table
    assert timings[("processes", 4)] * 2.5 <= timings[("in-process", 1)]
