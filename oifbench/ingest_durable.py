"""ingest-durable: writes beside reads on a durable index, in process.

A ``DurableIndex`` over ``UpdatableOIF`` with ``fsync=always`` and the 32 KB
pool.  Insert batches and delete batches alternate, so the live record count
stays constant, and one cold query follows every batch; it is answered over
the pending delta and tombstones.  Flushes and checkpoints are triggered by
the count of records written, never by time.  The run ends with a
checkpoint, a fixed WAL tail, ``close()`` and ``open_index()``: the reopened
index must answer exactly as it did before the close.

Answers are checked against a live-set oracle that replays the same
deterministic write stream.
"""

from __future__ import annotations

import random
import statistics
import time
from itertools import count

from harness import (
    WORK_DIR,
    RefClock,
    io_summary,
    metric,
    peak_rss_mb,
    percentile,
    settle,
    timed_setup,
    write_chars,
)

NUM_RECORDS = 10_000
INSERT_POOL = 20_000
SIZES = (2, 4, 6, 8, 10, 12, 14, 16, 18, 20)
QUERIES_PER_SIZE = 20
BATCH = 20
FLUSH_EVERY = 2_000
CHECKPOINT_EVERY_FLUSHES = 4
#: Batches written after the last checkpoint, so every reopen replays the same WAL tail.
TAIL_BATCHES = 50
CHECK_QUERIES = 40
#: Each query runs this many times, cold each time, and keeps its fastest
#: time: writes and fsyncs just before a query disturb single timings.
QUERY_TRIES = 2
SETUP_REPEATS = 9
REOPENS = 3

_dirs = count()


class LiveSet:
    """Oracle: the live records, with an item -> ids inverted index."""

    def __init__(self, dataset, rng: random.Random) -> None:
        self.items = {record.record_id: frozenset(record.items) for record in dataset}
        self.ids = list(self.items)
        self.position = {record_id: i for i, record_id in enumerate(self.ids)}
        self.inverted: dict = {}
        for record_id, items in self.items.items():
            for item in items:
                self.inverted.setdefault(item, set()).add(record_id)
        self.rng = rng

    def insert(self, record_id: int, items: frozenset) -> None:
        self.items[record_id] = items
        self.position[record_id] = len(self.ids)
        self.ids.append(record_id)
        for item in items:
            self.inverted.setdefault(item, set()).add(record_id)

    def pick(self, k: int) -> list[int]:
        """``k`` distinct live ids, drawn deterministically."""
        return [self.ids[slot] for slot in self.rng.sample(range(len(self.ids)), k)]

    def delete(self, record_id: int) -> None:
        items = self.items.pop(record_id)
        slot = self.position.pop(record_id)
        last = self.ids.pop()
        if last != record_id:
            self.ids[slot] = last
            self.position[last] = slot
        for item in items:
            self.inverted[item].discard(record_id)

    def answer(self, expr) -> list[int]:
        from repro.core.query.expr import Equality, Subset

        query = expr.items
        postings = sorted((self.inverted.get(item, set()) for item in query), key=len)
        if isinstance(expr, (Subset, Equality)):
            found = set.intersection(*postings)
            if isinstance(expr, Equality):
                found = {rid for rid in found if len(self.items[rid]) == len(query)}
        else:
            found = {rid for rid in set().union(*postings) if self.items[rid] <= query}
        return sorted(found)


def make_inputs(seed: int):
    from repro.datasets.synthetic import SyntheticConfig, generate_dataset, generate_transactions
    from repro.workloads.queries import WorkloadGenerator

    dataset = generate_dataset(num_records=NUM_RECORDS, seed=seed)
    inserts = [
        frozenset(items)
        for items in generate_transactions(SyntheticConfig(num_records=INSERT_POOL, seed=seed + 7))
    ]
    generator = WorkloadGenerator(dataset, seed=seed + 1)
    queries = [
        generator.query(query_type, size).expr
        for query_type in ("subset", "equality", "superset")
        for size in SIZES
        for _ in range(QUERIES_PER_SIZE)
    ]
    random.Random(seed + 2).shuffle(queries)
    return dataset, inserts, queries


def build(dataset):
    """Build the OIF on catalog environments and persist generation 0."""
    from repro.core.updates import UpdatableOIF
    from repro.durability import persist
    from repro.durability.store import durable_env_factory
    from repro.storage.kvstore import PAPER_CACHE_BYTES
    from repro.storage.pager import DEFAULT_PAGE_SIZE

    directory = str(WORK_DIR / f"ingest-{next(_dirs)}")
    handle = UpdatableOIF(
        dataset, env_factory=durable_env_factory(DEFAULT_PAGE_SIZE, PAPER_CACHE_BYTES)
    )
    return directory, persist(directory, handle, fsync="always")


class _Stream:
    """The deterministic write/query stream, timed with a reference clock."""

    def __init__(self, durable, oracle: LiveSet, inserts, queries) -> None:
        self.durable = durable
        self.oracle = oracle
        self.inserts = inserts
        self.queries = queries
        self.batches = 0
        self.records = 0
        self.flushes = 0
        self.failed = 0
        self.attempted = 0

    def write_batch(self, clock: "RefClock | None", merge: bool = True) -> None:
        """One insert or delete batch (alternating), plus any count-triggered merge."""
        durable = self.durable
        if self.batches % 2 == 0:
            start = (self.batches // 2) * BATCH % len(self.inserts)
            sets = self.inserts[start:start + BATCH]
            ids = _timed(clock, "write", lambda: durable.insert(sets))
            for record_id, items in zip(ids, sets):
                self.oracle.insert(record_id, items)
        else:
            victims = self.oracle.pick(BATCH)
            _timed(clock, "write", lambda: durable.delete(victims))
            for record_id in victims:
                self.oracle.delete(record_id)
        self.attempted += 1
        self.batches += 1
        self.records += BATCH
        if merge and self.records % FLUSH_EVERY == 0:
            _timed(clock, "flush", durable.flush)
            self.flushes += 1
            if self.flushes % CHECKPOINT_EVERY_FLUSHES == 0:
                _timed(clock, "checkpoint", durable.checkpoint)

    def query(self, clock: RefClock, slot: int):
        """One cold query, timed best of QUERY_TRIES (each after ``drop_cache``)."""
        expr = self.queries[slot % len(self.queries)]
        results = clock.best_of(
            lambda: self.durable.measured_evaluate(expr),
            self.durable.index.drop_cache,
            QUERY_TRIES,
            "query",
        )
        expected = self.oracle.answer(expr)
        self.attempted += len(results)
        self.failed += sum(ids != expected for ids, _ in results)
        return results[0][1]

    def run(self, seconds: float) -> "tuple[RefClock, list]":
        clock = RefClock()
        ios = []
        wchar = write_chars()
        written = self.records
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self.write_batch(clock)
            ios.append(self.query(clock, self.batches))
        self.bytes_per_record = (write_chars() - wchar) / max(1, self.records - written)
        return clock, ios


def _timed(clock, tag: str, fn):
    return fn() if clock is None else clock.time(fn, tag)


def _whole_periods(tags: list) -> int:
    """Operations up to the query after the last flush (all of them without one).

    A flush period is FLUSH_EVERY records of batches and queries plus the
    flush they trigger; cutting the run at a period boundary keeps the mix
    of cheap writes and costly merges identical from run to run.
    """
    merges = [i for i, tag in enumerate(tags) if tag in ("flush", "checkpoint")]
    if not merges:
        return len(tags)
    return next((i + 1 for i in range(merges[-1], len(tags)) if tags[i] == "query"), len(tags))


def _loop_metrics(clock: RefClock) -> dict:
    end = _whole_periods(clock.tags)
    normalized = clock.normalized()[:end]
    by_tag: dict[str, list[float]] = {}
    for tag, value in zip(clock.tags[:end], normalized):
        by_tag.setdefault(tag, []).append(value)
    queries_ms = [value * 1000.0 for value in by_tag["query"]]
    write_s = sum(sum(by_tag.get(tag, ())) for tag in ("write", "flush", "checkpoint"))
    return {
        "p50": percentile(queries_ms, 50),
        "p99": percentile(queries_ms, 99),
        "qps": len(queries_ms) / sum(normalized),
        "rps": len(by_tag["write"]) * BATCH / write_s,
        "queries": len(queries_ms),
    }


def _mix_cost(clock: RefClock, mix: RefClock) -> float:
    """Rescaled time of ``mix``'s writes and query tries at ``clock``'s per-operation means.

    Weighting both halves of a traced run by one mix compares like with
    like.  Flushes and checkpoints are left out: a half-run holds too few of
    them for a stable mean.
    """
    means: dict[str, list[float]] = {}
    for tag, value in zip(clock.tags, clock.normalized(clock.total_s)):
        means.setdefault(tag, []).append(value)
    return sum(
        statistics.fmean(means[tag]) for tag in mix.tags if tag in ("write", "query")
    )


def run(seed: int, seconds: float, tracer=None) -> dict:
    from repro.durability import open_index
    from repro.storage.stats import DiskModel, IOSnapshot

    dataset, inserts, queries = make_inputs(seed)
    oracle = LiveSet(dataset, random.Random(seed + 3))
    settle()
    setup_s, (directory, durable) = timed_setup(
        lambda: build(dataset), SETUP_REPEATS, discard=lambda built: built[1].close()
    )
    stream = _Stream(durable, oracle, inserts, queries)

    clock, ios = stream.run(seconds if tracer is None else seconds / 2)
    loop = _loop_metrics(clock)
    bytes_per_record = stream.bytes_per_record
    io_total = sum(ios, IOSnapshot())
    out = {}
    if tracer is not None:
        tracer.reset()
        tracer.install()
        try:
            traced_clock, _ = stream.run(seconds / 2)
        finally:
            tracer.uninstall()
        # One operation is one cycle: a write batch, its share of merges and
        # every try of its query (the wrappers see all tries).
        cycles = traced_clock.tags.count("query")
        out["trace"] = {
            "snapshot": tracer.snapshot(),
            "operations": cycles,
            "queries": sum(
                tries for tries, tag in zip(traced_clock.tries, traced_clock.tags)
                if tag == "query"
            ),
            "e2e_ms": sum(traced_clock.total_s) * 1000.0 / max(1, cycles),
            "overhead_share": _mix_cost(traced_clock, clock) / _mix_cost(clock, clock) - 1.0,
        }
    live_records = len(oracle.items)
    index_bytes = durable.index.index_size_bytes

    # A fixed WAL tail after the last checkpoint, then close and reopen.
    durable.checkpoint()
    for _ in range(TAIL_BATCHES):
        stream.write_batch(None, merge=False)
    check = [queries[i % len(queries)] for i in range(CHECK_QUERIES)]
    before_close = [durable.evaluate(expr) for expr in check]
    stream.attempted += len(check)
    stream.failed += sum(ids != oracle.answer(expr) for ids, expr in zip(before_close, check))
    durable.close()

    reopen_times = []
    for attempt in range(REOPENS + (tracer is not None)):
        traced = tracer is not None and attempt == REOPENS
        if traced:
            tracer.reset()
            tracer.install()
        try:
            reopen_s, reopened = timed_setup(lambda: open_index(directory), 1)
        finally:
            if traced:
                tracer.uninstall()
        if not traced:
            reopen_times.append(reopen_s)
        answers = [reopened.evaluate(expr) for expr in check]
        stream.attempted += len(check)
        stream.failed += sum(a != b for a, b in zip(answers, before_close))
        reopened.close()

    out["side"] = {
        "write_throughput_rps": loop["rps"],
        "bytes_written_per_record": bytes_per_record,
        "reopen_s": statistics.median(reopen_times),
    }
    if tracer is not None:
        from layers import seconds as bucket_seconds

        out["side"]["replay_s"] = bucket_seconds(tracer.snapshot(), "durability.replay")
    out.update(
        attempted=stream.attempted,
        failed=stream.failed,
        samples=loop["queries"],
        io=io_summary(io_total, len(ios), DiskModel()),
        metrics={
            "setup_s": metric(setup_s, "s"),
            "query_p50_ms": metric(loop["p50"], "ms"),
            "query_p99_ms": metric(loop["p99"], "ms"),
            "query_throughput_qps": metric(loop["qps"], "1/s"),
            "index_bytes_per_record": metric(index_bytes / live_records, "B"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        },
    )
    return out
