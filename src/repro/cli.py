"""Command-line interface for the OIF reproduction.

The CLI exposes the workflows a downstream user needs without writing Python:

* ``repro-oif generate`` — produce a synthetic / msweb / msnbc transaction file;
* ``repro-oif query`` — build an index over a transaction file and answer a
  containment query, printing the matching record ids and the I/O cost;
* ``repro-oif compare`` — replay a generated workload on the IF and the OIF
  and print the mean page accesses per query size;
* ``repro-oif experiment`` — regenerate one of the paper's figures/tables;
* ``repro-oif serve`` — keep indexes resident and answer containment queries
  over JSON-over-HTTP (see :mod:`repro.service`); with ``--data-dir`` the
  indexes are persisted (pages + manifest + write-ahead log) and a restarted
  server reopens them in seconds — crash-interrupted updates replayed from
  the WAL — instead of rebuilding from the source datasets;
* ``repro-oif client`` — talk to a running server (health, stats, queries,
  index lifecycle, updates, checkpoints).

Run ``repro-oif <command> --help`` for the options of each command.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro import __version__
from repro.baselines import InvertedFile, SignatureFile, UnorderedBTreeInvertedFile
from repro.core import OrderedInvertedFile, QueryType, ShardedIndex
from repro.core.query import expr_from_dict
from repro.datasets import (
    MsnbcConfig,
    MswebConfig,
    SyntheticConfig,
    generate_msnbc,
    generate_msweb,
    generate_synthetic,
    read_transactions,
    write_transactions,
)
from repro.errors import ReproError
from repro.obs import trace as obs_trace
from repro.experiments import (
    ExperimentRunner,
    figure7,
    figure8,
    figure9,
    figure10,
    if_factory,
    oif_factory,
    ordering_ablation,
    performance_summary,
    render_tables,
    skew_robustness,
    space_overhead,
    update_tradeoff,
)
from repro.experiments.figures import SyntheticScale
from repro.service import INDEX_KINDS
from repro.workloads import WorkloadGenerator

_INDEX_CLASSES = {
    "oif": OrderedInvertedFile,
    "if": InvertedFile,
    "ubt": UnorderedBTreeInvertedFile,
    "sig": SignatureFile,
}


def _positive_int(value: str) -> int:
    """argparse type for options that must be a positive integer (--shards)."""
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value!r}") from None
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {number}")
    return number


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-oif",
        description="Ordered Inverted File (EDBT 2011) reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate a dataset as a transaction file")
    generate.add_argument("output", help="path of the transaction file to write")
    generate.add_argument(
        "--kind", choices=("synthetic", "msweb", "msnbc"), default="synthetic"
    )
    generate.add_argument("--records", type=int, default=20_000)
    generate.add_argument("--domain", type=int, default=2000)
    generate.add_argument("--zipf", type=float, default=0.8)
    generate.add_argument("--seed", type=int, default=7)

    query = sub.add_parser(
        "query", help="answer one containment query or expression over a transaction file"
    )
    query.add_argument("data", help="transaction file (one record per line)")
    query.add_argument(
        "predicate", nargs="?", choices=("subset", "equality", "superset"),
        help="point predicate (omit when using --expr)",
    )
    query.add_argument("items", nargs="*", help="query items")
    query.add_argument(
        "--expr",
        help="composite query expression as JSON, e.g. "
        '\'{"op": "and", "args": [{"op": "subset", "items": ["a"]}, '
        '{"op": "not", "arg": {"op": "superset", "items": ["a", "b"]}}]}\'',
    )
    query.add_argument("--index", choices=sorted(_INDEX_CLASSES), default="oif")
    query.add_argument(
        "--shards", type=_positive_int, default=1,
        help="partition the index over N shards (fan-out + merged cursor)",
    )
    query.add_argument(
        "--shard-backend", choices=("threads", "processes"), default="threads",
        help="evaluate shards in-process (default) or in worker processes "
        "(--index oif with --shards > 1 only)",
    )
    query.add_argument(
        "--shard-workers", type=_positive_int, default=None,
        help="worker processes for --shard-backend processes",
    )
    query.add_argument("--limit", type=int, default=20, help="max record ids to print")
    query.add_argument("--explain", action="store_true", help="print the physical plan")
    query.add_argument(
        "--trace", action="store_true",
        help="record per-stage spans (plan, block scan, decode, intersect, "
        "buffer pool) and print the nested span tree",
    )
    query.add_argument(
        "--cpu-profile", type=int, nargs="?", const=15, default=None, metavar="N",
        help="run the query under cProfile and print the top N functions by "
        "cumulative time (default 15) — for diagnosing hot-path regressions",
    )

    compare = sub.add_parser("compare", help="compare IF and OIF on a generated workload")
    compare.add_argument("data", help="transaction file (one record per line)")
    compare.add_argument("--predicate", choices=("subset", "equality", "superset"), default="subset")
    compare.add_argument("--sizes", type=int, nargs="+", default=[2, 3, 4, 5])
    compare.add_argument("--queries-per-size", type=int, default=5)
    compare.add_argument("--seed", type=int, default=17)

    experiment = sub.add_parser("experiment", help="regenerate one of the paper's experiments")
    experiment.add_argument(
        "name",
        choices=(
            "fig7-msweb",
            "fig7-msnbc",
            "fig8",
            "fig9",
            "fig10",
            "space",
            "ordering",
            "updates",
            "summary",
            "skew",
        ),
    )
    experiment.add_argument(
        "--records", type=int, default=20_000, help="base synthetic dataset size"
    )
    experiment.add_argument("--queries-per-size", type=int, default=5)

    serve = sub.add_parser(
        "serve",
        help="serve containment queries over JSON-over-HTTP "
        "(--data-dir makes indexes survive restarts)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080, help="0 picks a free port")
    serve.add_argument("--data", help="transaction file to pre-load as an index")
    serve.add_argument(
        "--data-dir", default=None, metavar="DIR",
        help="persist OIF indexes under DIR (page images + manifest + WAL) and "
        "reopen every index found there on start — no source dataset needed, "
        "updates acked after the last checkpoint are replayed from the WAL",
    )
    serve.add_argument(
        "--checkpoint-interval", type=float, default=None, metavar="SECONDS",
        help="with --data-dir, checkpoint durable indexes every SECONDS in the "
        "background (flush deltas, publish a new generation, truncate the WAL)",
    )
    serve.add_argument(
        "--fsync", choices=("always", "never"), default="always",
        help="WAL fsync policy: 'always' makes every acked update survive power "
        "loss; 'never' trades the WAL tail for update throughput",
    )
    serve.add_argument("--name", default="default", help="name of the pre-loaded index")
    serve.add_argument("--index", choices=sorted(INDEX_KINDS), default="oif")
    serve.add_argument(
        "--shards", type=_positive_int, default=1,
        help="partition the pre-loaded index over N shards (oif only)",
    )
    serve.add_argument(
        "--shard-backend", choices=("threads", "processes"), default="threads",
        help="evaluate shards in-process on the querying thread (default) or "
        "in a persistent worker-process pool that sidesteps the GIL",
    )
    serve.add_argument(
        "--shard-workers", type=_positive_int, default=None,
        help="worker processes for --shard-backend processes "
        "(default: min(cpus, shards))",
    )
    serve.add_argument("--workers", type=int, default=4, help="query worker threads")
    serve.add_argument("--cache-capacity", type=int, default=4096, help="result cache entries")
    serve.add_argument("--verbose", action="store_true", help="log every HTTP request")
    serve.add_argument(
        "--slow-query-ms", type=float, default=None, metavar="MS",
        help="log queries slower than MS milliseconds to the slow-query ring "
        "(inspect via GET /slowlog)",
    )
    serve.add_argument(
        "--slow-query-log", default=None, metavar="PATH",
        help="also append slow-query records to this JSONL file",
    )
    serve.add_argument(
        "--trace", action="store_true",
        help="record per-stage spans for served queries (span trees appear in "
        "query responses and slow-query records)",
    )
    serve.add_argument(
        "--trace-sample", type=_positive_int, default=1, metavar="N",
        help="with --trace, trace only every N-th query (default: every query)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=None, metavar="N",
        help="bound the admission queue at N waiting queries; excess requests "
        "are shed with 429 + Retry-After (default: unbounded)",
    )
    serve.add_argument(
        "--max-inflight-per-index", type=_positive_int, default=None, metavar="N",
        help="bound concurrent queries per index at N; excess requests are "
        "shed with 429 (default: unbounded)",
    )
    serve.add_argument(
        "--default-deadline-ms", type=float, default=None, metavar="MS",
        help="default wall-clock deadline per query; an expired query stops "
        "at its next page access and answers 408 (requests may override "
        "with 'deadline_ms'; default: none)",
    )

    client = sub.add_parser("client", help="talk to a running repro-oif server")
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=8080)
    client_sub = client.add_subparsers(dest="action", required=True)
    client_sub.add_parser("health", help="liveness check")
    client_sub.add_parser("stats", help="serving / cache / index statistics")
    client_sub.add_parser("metrics", help="print the Prometheus text metrics")
    client_sub.add_parser("slowlog", help="print the retained slow-query records")
    client_sub.add_parser("indexes", help="list the resident indexes")
    client_create = client_sub.add_parser("create", help="create an index from a transaction file")
    client_create.add_argument("name")
    client_create.add_argument("data", help="transaction file readable by the *server*")
    client_create.add_argument("--kind", choices=sorted(INDEX_KINDS), default="oif")
    client_create.add_argument(
        "--shards", type=_positive_int, default=1,
        help="partition the index over N shards on the server (oif only)",
    )
    client_drop = client_sub.add_parser("drop", help="drop a resident index")
    client_drop.add_argument("name")
    client_query = client_sub.add_parser("query", help="answer one containment query")
    client_query.add_argument("name", help="index name on the server")
    client_query.add_argument(
        "predicate", nargs="?", choices=("subset", "equality", "superset"),
        help="point predicate (omit when using --expr)",
    )
    client_query.add_argument("items", nargs="*", help="query items")
    client_query.add_argument("--expr", help="composite query expression as JSON")
    client_insert = client_sub.add_parser("insert", help="insert one transaction")
    client_insert.add_argument("name", help="index name on the server")
    client_insert.add_argument("items", nargs="+", help="items of the new record")
    client_insert.add_argument("--flush", action="store_true", help="merge the delta afterwards")
    client_delete = client_sub.add_parser("delete", help="delete records by id")
    client_delete.add_argument("name", help="index name on the server")
    client_delete.add_argument("record_ids", nargs="+", type=int, help="record ids to delete")
    client_delete.add_argument("--flush", action="store_true", help="merge the delta afterwards")
    client_checkpoint = client_sub.add_parser(
        "checkpoint",
        help="flush deltas and publish a new on-disk generation (durable indexes)",
    )
    client_checkpoint.add_argument("name", help="index name on the server")
    client_checkpoint.add_argument(
        "--force", action="store_true",
        help="write a new generation even when nothing changed",
    )
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "synthetic":
        dataset = generate_synthetic(
            SyntheticConfig(
                num_records=args.records,
                domain_size=args.domain,
                zipf_order=args.zipf,
                seed=args.seed,
            )
        )
    elif args.kind == "msweb":
        dataset = generate_msweb(MswebConfig(num_sessions=args.records, seed=args.seed))
    else:
        dataset = generate_msnbc(MsnbcConfig(num_sessions=args.records, seed=args.seed))
    write_transactions(dataset, args.output)
    print(
        f"wrote {len(dataset)} records over {dataset.domain_size} items "
        f"(avg length {dataset.average_length:.2f}) to {args.output}"
    )
    return 0


def _parse_cli_expr(args: argparse.Namespace):
    """Resolve the query expression from ``--expr`` or the positional predicate."""
    if args.expr is not None:
        if args.predicate or args.items:
            raise ReproError("pass either --expr or a predicate with items, not both")
        try:
            wire = json.loads(args.expr)
        except json.JSONDecodeError as error:
            raise ReproError(f"--expr is not valid JSON: {error}") from None
        return expr_from_dict(wire)
    if not args.predicate or not args.items:
        raise ReproError("need a predicate with items, or --expr")
    return QueryType.parse(args.predicate).leaf(args.items)


def _cmd_query(args: argparse.Namespace) -> int:
    dataset = read_transactions(args.data)
    index_class = _INDEX_CLASSES[args.index]
    pool = None
    if args.shard_backend == "processes":
        if args.index != "oif" or args.shards <= 1:
            raise ReproError(
                "--shard-backend processes needs --index oif with --shards > 1"
            )
        from repro.core.shard import ShardProcessPool

        # Catalog-enabled shard environments so the pool can image them.
        index = ShardedIndex(dataset, args.shards, catalog_pages=True)
        pool = ShardProcessPool(index, args.shard_workers)
        index.attach_process_pool(pool)
    elif args.shards > 1:
        index = ShardedIndex(
            dataset, args.shards, factory=lambda shard_ds: index_class(shard_ds)
        )
    else:
        index = index_class(dataset)
    expr = _parse_cli_expr(args)
    try:
        if args.explain:
            # Plan without opening a cursor: executing here would warm the buffer
            # pool and distort the measured page accesses below.
            print(index.explain(expr))
        root = None
        if args.trace:
            obs_trace.configure(enabled=True)
            root = obs_trace.begin("query", index=index.name)
        if args.cpu_profile is not None:
            import cProfile
            import pstats

            profiler = cProfile.Profile()
            profiler.enable()
            result = index.measured_execute(expr)
            profiler.disable()
        else:
            result = index.measured_execute(expr)
        span_tree = None
        if args.trace:
            span_tree = obs_trace.finish(root)
            obs_trace.disable()
        shown = ", ".join(str(record_id) for record_id in result.record_ids[: args.limit])
        suffix = " ..." if result.cardinality > args.limit else ""
        print(f"{result.cardinality} matching records: {shown}{suffix}")
        print(
            f"cost: {result.page_accesses} page accesses "
            f"({result.random_reads} random, {result.sequential_reads} sequential), "
            f"{result.io_time_ms:.2f} ms simulated I/O, {result.cpu_time_ms:.2f} ms CPU"
        )
        if span_tree is not None:
            print("\ntrace:")
            print(obs_trace.format_tree(span_tree))
        if args.cpu_profile is not None:
            print(f"\ncProfile: top {args.cpu_profile} by cumulative time")
            stats = pstats.Stats(profiler, stream=sys.stdout)
            stats.strip_dirs().sort_stats("cumulative").print_stats(args.cpu_profile)
        return 0
    finally:
        if pool is not None:
            pool.close()


def _cmd_compare(args: argparse.Namespace) -> int:
    dataset = read_transactions(args.data)
    generator = WorkloadGenerator(dataset, seed=args.seed)
    workload = generator.workload(args.predicate, args.sizes, args.queries_per_size)
    runner = ExperimentRunner()
    results = runner.compare(dataset, workload, (if_factory(), oif_factory()))
    print(f"{args.predicate} queries over {args.data} ({len(dataset)} records)")
    header = f"{'|qs|':>5}  " + "  ".join(f"{name:>12}" for name in results)
    print(header)
    for size in args.sizes:
        row = [f"{size:>5}"]
        for name, run in results.items():
            costs = {cost.group: cost for cost in run.by_query_size()}
            cost = costs.get(size)
            row.append(f"{cost.mean_page_accesses:>12.1f}" if cost else f"{'-':>12}")
        print("  ".join(row))
    print("(mean disk page accesses per query; lower is better)")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    scale = SyntheticScale(base_records=args.records, queries_per_size=args.queries_per_size)
    name = args.name
    if name == "fig7-msweb":
        tables = [figure7("msweb", queries_per_size=args.queries_per_size)]
    elif name == "fig7-msnbc":
        tables = [figure7("msnbc", queries_per_size=args.queries_per_size)]
    elif name == "fig8":
        tables = list(figure8(scale).values())
    elif name == "fig9":
        tables = list(figure9(scale).values())
    elif name == "fig10":
        tables = list(figure10(scale).values())
    elif name == "space":
        tables = [space_overhead(num_records=args.records)]
    elif name == "ordering":
        tables = [ordering_ablation(num_records=args.records, queries_per_size=args.queries_per_size)]
    elif name == "updates":
        tables = [update_tradeoff(num_records=min(args.records, 10_000))]
    elif name == "summary":
        tables = [performance_summary(num_records=args.records)]
    else:
        tables = [skew_robustness(num_records=args.records)]
    print(render_tables(tables))
    return 0


def build_server(args: argparse.Namespace):
    """Construct (and pre-load) the service server for ``repro-oif serve``."""
    from repro.service import ServiceServer

    server = ServiceServer(
        host=args.host,
        port=args.port,
        max_workers=args.workers,
        cache_capacity=args.cache_capacity,
        quiet=not args.verbose,
        slow_query_ms=args.slow_query_ms,
        slow_query_log=args.slow_query_log,
        trace=args.trace,
        trace_sample=args.trace_sample,
        data_dir=args.data_dir,
        checkpoint_interval=args.checkpoint_interval,
        fsync=args.fsync,
        shard_backend=args.shard_backend,
        shard_workers=args.shard_workers,
        max_queue=args.max_queue,
        max_inflight_per_index=args.max_inflight_per_index,
        default_deadline_ms=args.default_deadline_ms,
    )
    for info in server.recovered:
        print(
            f"recovered index {info['name']!r}: generation {info['generation']}, "
            f"{info['records']} records, {info['wal_records_replayed']} WAL "
            f"records replayed in {info['open_seconds']}s"
        )
    if args.shards > 1 and not args.data:
        server.shutdown()
        raise ReproError("--shards only applies to the pre-loaded index; pass --data")
    if args.shard_backend == "processes" and args.data and (
        args.shards <= 1 or args.index != "oif"
    ):
        server.shutdown()
        raise ReproError(
            "--shard-backend processes needs the pre-loaded index to be "
            "--index oif with --shards > 1"
        )
    if args.data and args.name in server.manager:
        # --data-dir already brought this name back; the transaction file was
        # only its original seed, so don't build (or error) over the
        # recovered index.
        print(f"index {args.name!r} already resident from --data-dir; skipping --data")
    elif args.data:
        options = {"shards": args.shards} if args.shards > 1 else {}
        try:
            dataset = read_transactions(args.data)
            server.manager.create(args.name, dataset, kind=args.index, **options)
        except ReproError:
            server.shutdown()  # release the bound socket and worker pool
            raise
        except OSError as error:
            server.shutdown()
            raise ReproError(f"cannot read transaction file: {error}") from error
        sharding = f", {args.shards} shards" if args.shards > 1 else ""
        print(
            f"loaded index {args.name!r} ({args.index}{sharding}) over "
            f"{len(dataset)} records from {args.data}"
        )
    return server


def _cmd_serve(args: argparse.Namespace) -> int:
    server = build_server(args)
    print(f"serving on {server.url} ({args.workers} workers; Ctrl-C to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.shutdown()
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    client = ServiceClient(host=args.host, port=args.port)
    # One-shot CLI invocations still close their keep-alive connection
    # explicitly, so the server's handler thread is released immediately.
    with client:
        return _run_client_action(client, args)


def _run_client_action(client, args: argparse.Namespace) -> int:
    if args.action == "health":
        payload = client.healthz()
    elif args.action == "stats":
        payload = client.stats()
    elif args.action == "metrics":
        # Prometheus text, not JSON — print verbatim.
        print(client.metrics(), end="")
        return 0
    elif args.action == "slowlog":
        payload = client.slowlog()
    elif args.action == "indexes":
        payload = {"indexes": client.indexes()}
    elif args.action == "create":
        payload = client.create_index(
            args.name,
            path=args.data,
            kind=args.kind,
            shards=args.shards if args.shards > 1 else None,
        )
    elif args.action == "drop":
        payload = client.drop_index(args.name)
    elif args.action == "insert":
        payload = client.insert(args.name, [args.items], flush=args.flush)
    elif args.action == "delete":
        payload = client.delete(args.name, args.record_ids, flush=args.flush)
    elif args.action == "checkpoint":
        payload = client.checkpoint(args.name, force=args.force)
    elif args.expr is not None:
        if args.predicate or args.items:
            raise ReproError("pass either --expr or a predicate with items, not both")
        try:
            payload = client.query_expr(args.name, json.loads(args.expr))
        except json.JSONDecodeError as error:
            raise ReproError(f"--expr is not valid JSON: {error}") from None
    elif not args.predicate or not args.items:
        raise ReproError("need a predicate with items, or --expr")
    else:
        payload = client.query(args.name, args.predicate, args.items)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point used both by ``python -m repro.cli`` and the console script."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "query":
            return _cmd_query(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "client":
            return _cmd_client(args)
        return _cmd_experiment(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
