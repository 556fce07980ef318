"""paper-cold: the paper's regime, in process, one client in a closed loop.

Zipf-0.8 synthetic data with the paper's defaults (|I| = 2000, record
lengths 2-20) and |D| large enough that the OIF is over 30 times the 32 KB
buffer pool.  Subset, equality and superset queries over the Fig. 8 |qs|
grid; ``drop_cache()`` empties the pool and the decoded-block cache before
every query, so each query pays its page accesses and its decode.
"""

from __future__ import annotations

import random
import statistics
import time

from harness import (
    RefClock,
    io_summary,
    metric,
    peak_rss_mb,
    percentile,
    settle,
    timed_setup,
)

NUM_RECORDS = 32_000
SIZES = (2, 4, 6, 8, 10, 12, 14, 16, 18, 20)
QUERIES_PER_SIZE = 30
BUILD_REPEATS = 5
#: Each query runs this many times, cold each time, and keeps its fastest time.
QUERY_TRIES = 2


def make_inputs(seed: int):
    from repro.baselines import NaiveScanIndex
    from repro.datasets.synthetic import generate_dataset
    from repro.workloads.queries import WorkloadGenerator

    dataset = generate_dataset(num_records=NUM_RECORDS, seed=seed)
    generator = WorkloadGenerator(dataset, seed=seed + 1)
    queries = [
        generator.query(query_type, size).expr
        for query_type in ("subset", "equality", "superset")
        for size in SIZES
        for _ in range(QUERIES_PER_SIZE)
    ]
    oracle = NaiveScanIndex(dataset)
    answers = [tuple(oracle.evaluate(expr)) for expr in queries]
    order = list(range(len(queries)))
    random.Random(seed + 2).shuffle(order)
    return dataset, queries, answers, order


class _Loop:
    """One closed-loop pass sequence over the query pool, with checked answers."""

    def __init__(self, index, queries, answers, order) -> None:
        self.index = index
        self.queries = queries
        self.answers = answers
        self.order = order
        self.clock = RefClock()
        self.results = []
        self.failed = 0
        self.attempted = 0

    def run(self, seconds: float) -> None:
        before = self.index.io_snapshot()
        deadline = time.perf_counter() + seconds
        position = 0
        while time.perf_counter() < deadline:
            slot = self.order[position % len(self.order)]
            position += 1
            expr = self.queries[slot]
            try:
                results = self.clock.best_of(
                    lambda: self.index.measured_execute(expr),
                    self.index.drop_cache,
                    QUERY_TRIES,
                )
            except Exception:  # a failing query is counted, not fatal
                self.attempted += 1
                self.failed += 1
                continue
            self.attempted += len(results)
            self.failed += sum(r.record_ids != self.answers[slot] for r in results)
            self.results.append(results[0])
        self.io = io_summary(
            self.index.io_snapshot() - before,
            len(self.results) * QUERY_TRIES,
            self.index.stats.disk_model,
        )


def run(seed: int, seconds: float, tracer=None) -> dict:
    from repro.core.oif import OrderedInvertedFile

    dataset, queries, answers, order = make_inputs(seed)
    settle()
    setup_s, index = timed_setup(lambda: OrderedInvertedFile(dataset), BUILD_REPEATS)

    untraced = _Loop(index, queries, answers, order)
    untraced.run(seconds if tracer is None else seconds / 2)
    loops = [untraced]
    out = {}
    if tracer is not None:
        traced = _Loop(index, queries, answers, order)
        tracer.reset()
        tracer.install()
        try:
            traced.run(seconds / 2)
        finally:
            tracer.uninstall()
        loops.append(traced)
        out["trace"] = traced_metrics(tracer, untraced, traced)

    latencies_ms = [value * 1000.0 for value in untraced.clock.normalized()]
    out.update(
        attempted=sum(loop.attempted for loop in loops),
        failed=sum(loop.failed for loop in loops),
        samples=len(latencies_ms),
        metrics={
            "setup_s": metric(setup_s, "s"),
            "query_p50_ms": metric(percentile(latencies_ms, 50), "ms"),
            "query_p99_ms": metric(percentile(latencies_ms, 99), "ms"),
            "query_throughput_qps": metric(1000.0 / statistics.fmean(latencies_ms), "1/s"),
            "index_bytes_per_record": metric(index.index_size_bytes / len(dataset), "B"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        },
        io=untraced.io,
    )
    return out


def traced_metrics(tracer, untraced: _Loop, traced: _Loop) -> dict:
    """Raw material for the per-layer table of the traced half of the run.

    The wrappers see every try of every query, so the operation here is one
    query execution, and end-to-end time sums all tries.
    """
    executions = sum(traced.clock.tries)
    return {
        "snapshot": tracer.snapshot(),
        "operations": executions,
        "queries": executions,
        "e2e_ms": sum(traced.clock.total_s) * 1000.0 / max(1, executions),
        "overhead_share": statistics.fmean(traced.clock.normalized(traced.clock.total_s))
        / statistics.fmean(untraced.clock.normalized(untraced.clock.total_s))
        - 1.0,
    }
