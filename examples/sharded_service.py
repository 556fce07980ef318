"""Sharding end to end: partitioned builds, merged cursors, sharded serving.

Run with::

    python examples/sharded_service.py

The script partitions a synthetic weblog-style dataset over four shards,
shows that the sharded index answers every query exactly like the monolithic
one (while `limit` still stops reading pages early), pushes updates through
the delta buffer into per-shard flushes, and finally serves the sharded index
over HTTP —
the same thing ``repro-oif serve --data ... --shards 4`` does — with the
per-shard breakdown the ``/stats`` endpoint exposes.
"""

from __future__ import annotations

import random

from repro import Dataset, OrderedInvertedFile, ServiceClient, ServiceServer
from repro.core import ShardedIndex, Subset
from repro.core.updates import UpdatableShardedOIF

PAGES = [f"page{i:02d}" for i in range(40)]


def simulate_sessions(count: int, seed: int = 11) -> Dataset:
    """Zipf-flavoured browsing sessions (hot landing pages, long tail)."""
    rng = random.Random(seed)
    weights = [(rank + 1) ** -0.9 for rank in range(len(PAGES))]
    sessions = []
    for _ in range(count):
        size = rng.randint(1, 6)
        sessions.append(set(rng.choices(PAGES, weights=weights, k=size)))
    return Dataset.from_transactions(sessions)


def sharded_vs_monolithic(dataset: Dataset) -> None:
    # Small pages make the page-access effects visible at this toy scale: a
    # hot item's inverted list spans several pages per shard.
    mono = OrderedInvertedFile(dataset, page_size=512)
    sharded = ShardedIndex(dataset, 4, max_workers=4, page_size=512)
    print(f"shards: {sharded.shard_record_counts()} records "
          f"({sharded.name}, partitioner {sharded.partitioner!r})")

    expr = Subset(frozenset(["page00"]))
    assert sharded.evaluate(expr) == mono.evaluate(expr)
    print(f"subset(page00): {len(sharded.evaluate(expr))} sessions "
          "(identical answers, sharded and monolithic)")

    sharded.drop_cache()
    full = sharded.measured_execute(expr)
    sharded.drop_cache()
    limited = sharded.measured_execute(expr.limit(3))
    print(f"fan-out cursor: full drain {full.page_accesses} pages, "
          f"limit 3 only {limited.page_accesses} pages — the merge pulls just "
          "the ids it yields, so shards beyond the slice are never touched")
    print("fan-out plan:\n" + sharded.explain(expr.limit(3)))


def per_shard_updates(dataset: Dataset) -> None:
    updatable = UpdatableShardedOIF(dataset, 4, max_workers=4)
    updatable.insert([["page00", "page99"], ["page99"]])
    print(f"\npending per shard after 2 inserts: {updatable.pending_per_shard()}")
    fresh = updatable.evaluate(Subset(frozenset(["page99"])))
    print(f"new sessions visible before any flush: {fresh}")
    report = updatable.flush()
    print(f"flush rebuilt only the affected shards: {report.records_merged} records "
          f"merged in {report.merge_seconds * 1000:.1f} ms "
          f"({report.page_writes} page writes)")


def sharded_serving(dataset: Dataset) -> None:
    with ServiceServer(port=0, max_workers=4) as server:
        client = ServiceClient(host=server.host, port=server.port)
        description = client.create_index(
            "web",
            transactions=[sorted(record.items) for record in dataset],
            shards=4,
        )
        print(f"\nserving index 'web' over {description['shards']} shards "
              f"({description['shard_records']} records per shard)")
        response = client.query("web", "subset", ["page00", "page01"])
        print(f"HTTP query: {response['cardinality']} sessions, "
              f"{response['page_accesses']} pages, per-shard breakdown:")
        for entry in response["shards"]:
            print(f"  shard {entry['shard']}: {entry['matches']} matches, "
                  f"{entry['page_accesses']} pages, {entry['elapsed_ms']} ms")
        breakdown = client.stats()["serving"]["per_index_shards"]["web"]
        print(f"/stats per-shard slots: {sorted(breakdown)}")


def main() -> None:
    dataset = simulate_sessions(3000)
    sharded_vs_monolithic(dataset)
    per_shard_updates(dataset)
    sharded_serving(dataset)


if __name__ == "__main__":
    main()
