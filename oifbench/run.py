"""Run one OIF benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 oifbench/run.py --workload paper-cold --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half the
time untraced and half with the per-layer wrappers installed, and prints the
per-layer metrics.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any wrong answer
makes the command exit with status 1 after printing it.

``--inject LAYER=MICROSECONDS`` (repeatable) adds a fixed delay (a sleep) at
every entry point of a layer; the sensitivity self-check uses it.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import ROOT, WORK_DIR, emit, host_record, ratio, steal_ticks  # noqa: E402

WORKLOADS = ("paper-cold", "serve-zipf", "ingest-durable")
#: Figures every workload measures but that are printed with the per-layer
#: metrics, without a bound: the serve-zipf tail follows host speed by more
#: than the largest bound allows (see README).
UNBOUNDED = ("query_p99_ms",)


def _load_program() -> None:
    """Put the checkout's ``src/`` on the path; fail if the program is absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"oifbench: no program sources under {src}")
    sys.path.insert(0, str(src))


def _workload(name: str):
    if name == "paper-cold":
        import paper_cold as module
    elif name == "serve-zipf":
        import serve_zipf as module
    else:
        import ingest_durable as module
    return module


def per_layer_metrics(out: dict) -> dict:
    """The per-layer metrics of a traced run (zero where a layer is idle)."""
    from layers import calls, extra, layer_table, seconds

    trace = out["trace"]
    snap = trace["snapshot"]
    ops = max(1, trace["operations"])
    queries = max(1, trace["queries"])
    table = layer_table(snap, ops)
    buckets, layers = table["buckets"], table["layers"]
    side = out.get("side", {})
    io = out.get("io", {})
    layers["service.http"] = side.get("transport_ms", 0.0)

    def per_call_ms(bucket: str) -> float:
        return seconds(snap, bucket) * 1000.0 / max(1, calls(snap, bucket))

    values = {
        "service.http.rtt_ms": (side.get("rtt_ms", 0.0), "ms"),
        "service.http.transport_ms": (layers["service.http"], "ms"),
        "service.admission.wait_ms": (layers["service.admission"], "ms"),
        "service.admission.shed": (side.get("shed", 0), "count"),
        "service.executor.exec_ms": (
            extra(snap, "service.executor.exec") / 1e6
            / max(1, calls(snap, "service.executor.exec")),
            "ms",
        ),
        "service.executor.self_ms": (layers["service.executor"], "ms"),
        "service.cache.hit_ratio": (side.get("cache_hit_ratio", 0.0), "ratio"),
        "service.cache.self_ms": (layers["service.cache"], "ms"),
        "service.index_manager.self_ms": (layers["service.index_manager"], "ms"),
        "core.shard.self_ms": (layers["core.shard"], "ms"),
        "core.query.plan_ms": (buckets.get("core.query.plan", 0.0), "ms"),
        "core.query.fetch_self_ms": (buckets.get("core.query.fetch", 0.0), "ms"),
        "core.oif.self_ms": (layers["core.oif"], "ms"),
        "core.oif.blocks_per_query": (calls(snap, "core.oif.block") / queries, "count"),
        "compression.decode_ms": (layers["compression"], "ms"),
        "compression.bytes_decoded_per_query": (
            extra(snap, "compression.decode") / queries, "B"
        ),
        "core.intersect.self_ms": (layers["core.intersect"], "ms"),
        "core.intersect.calls_per_query": (
            calls(snap, "core.intersect.kernel") / queries, "count"
        ),
        "storage.get_page_self_ms": (buckets.get("storage.get_page", 0.0), "ms"),
        "storage.btree_self_ms": (buckets.get("storage.btree", 0.0), "ms"),
        "storage.pool_hit_ratio": (io.get("pool_hit_ratio", 0.0), "ratio"),
        "storage.decoded_hit_ratio": (io.get("decoded_hit_ratio", 0.0), "ratio"),
        "storage.random_reads_per_query": (io.get("random_reads_per_query", 0.0), "count"),
        "storage.sequential_reads_per_query": (
            io.get("sequential_reads_per_query", 0.0), "count"
        ),
        "pages_per_query": (io.get("pages_per_query", 0.0), "count"),
        "modeled_io_ms_per_query": (io.get("modeled_io_ms_per_query", 0.0), "ms"),
        "core.updates.write_ms": (per_call_ms("core.updates.write"), "ms"),
        "core.updates.flush_s": (per_call_ms("core.updates.flush") / 1000.0, "s"),
        "core.updates.delta_eval_self_ms": (
            buckets.get("core.updates.delta_eval", 0.0), "ms"
        ),
        "core.updates.self_ms": (layers["core.updates"], "ms"),
        "durability.wal_append_ms": (per_call_ms("durability.wal_append"), "ms"),
        "durability.checkpoint_s": (per_call_ms("durability.checkpoint") / 1000.0, "s"),
        "durability.replay_s": (side.get("replay_s", 0.0), "s"),
        "durability.self_ms": (layers["durability"], "ms"),
        "write_throughput_rps": (side.get("write_throughput_rps", 0.0), "1/s"),
        "bytes_written_per_record": (side.get("bytes_written_per_record", 0.0), "B"),
        "reopen_s": (side.get("reopen_s", 0.0), "s"),
        "query_p99_ms": (out["metrics"]["query_p99_ms"]["value"], "ms"),
        "e2e_ms": (trace["e2e_ms"], "ms"),
        "unattributed_ms": (trace["e2e_ms"] - sum(layers.values()), "ms"),
        "trace_overhead_share": (trace["overhead_share"], "ratio"),
    }
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}


def layer_report(metrics: dict) -> str:
    """Human-readable additive table: layer self times plus unattributed = e2e."""
    rows = [
        ("service.http (transport)", "service.http.transport_ms"),
        ("service.admission (wait)", "service.admission.wait_ms"),
        ("service.executor", "service.executor.self_ms"),
        ("service.cache", "service.cache.self_ms"),
        ("service.index_manager", "service.index_manager.self_ms"),
        ("core.shard", "core.shard.self_ms"),
        ("core.query (plan)", "core.query.plan_ms"),
        ("core.query (fetch)", "core.query.fetch_self_ms"),
        ("core.oif", "core.oif.self_ms"),
        ("compression", "compression.decode_ms"),
        ("core.intersect", "core.intersect.self_ms"),
        ("storage (get_page)", "storage.get_page_self_ms"),
        ("storage (btree)", "storage.btree_self_ms"),
        ("core.updates", "core.updates.self_ms"),
        ("durability", "durability.self_ms"),
        ("unattributed", "unattributed_ms"),
    ]
    e2e = metrics["e2e_ms"]["value"]
    lines = [f"# {'layer':28s} {'ms/op':>10s} {'share':>7s}"]
    for label, name in rows:
        value = metrics[name]["value"]
        lines.append(f"# {label:28s} {value:10.4f} {ratio(value, e2e):7.1%}")
    lines.append(f"# {'end to end (traced)':28s} {e2e:10.4f}")
    return "\n".join(lines)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", action="append", default=[], metavar="LAYER=US")
    return parser.parse_args(argv)


def parse_injections(specs) -> dict:
    from layers import LAYERS

    delays = {}
    for spec in specs:
        layer, _, micros = spec.partition("=")
        if layer not in LAYERS:
            raise SystemExit(f"oifbench: unknown layer {layer!r}")
        delays[layer] = float(micros) / 1e6
    return delays


def run(args: argparse.Namespace) -> dict:
    """Run one workload; returns its raw result (see the workload modules)."""
    _load_program()
    from layers import Tracer

    delays = parse_injections(args.inject)
    tracer = Tracer(delays) if (args.trace or args.inject) else None
    if args.inject:
        # Injected delays act through the wrappers, so they stay installed
        # for the untraced half of the run as well.
        tracer.pin()
    WORK_DIR.mkdir(exist_ok=True)
    try:
        return _workload(args.workload).run(args.seed, args.seconds, tracer)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    steal_start = steal_ticks()
    out = run(args)
    if args.trace:
        metrics = per_layer_metrics(out)
    else:
        metrics = {name: m for name, m in out["metrics"].items() if name not in UNBOUNDED}
    correct = out["failed"] == 0
    result = {
        "correct": correct,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }
    if args.trace:
        print(layer_report(metrics))
    notes = {"samples": out["samples"]}
    if args.trace:
        # The untraced half's end-to-end figures, for the sensitivity self-check.
        notes["end_to_end"] = {name: m["value"] for name, m in out["metrics"].items()}
    emit(result, host_record(steal_start), notes)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
