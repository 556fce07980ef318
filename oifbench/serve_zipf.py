"""serve-zipf: HTTP end to end, with the server in its own process.

The server runs ``nproc`` workers over a resident 2-shard threaded OIF,
created through ``POST /indexes``, whose buffer pool and decoded-block cache
hold the whole index.  A pool of distinct expressions (subset, equality,
superset and ``Subset AND NOT Superset``) is drawn with Zipf(1) popularity,
so the result cache answers a share of the requests; the cache is cleared
between passes.  Load is a closed loop on ``nproc`` keep-alive
``ServiceClient`` connections, because each caller waits for its reply.

Times are plain wall clock: this path is bound by the transport's timers,
not by CPU, so it is not rescaled by the reference kernel.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from harness import io_summary, metric, percentile, ratio, timed_setup

NUM_RECORDS = 10_000
#: Interactive-sized queries, the |qs| grid of the paper's real-data runs
#: (Fig. 7): the server's own time stays a few ms, so the tail measures the
#: transport and the service layers rather than a handful of huge supersets.
SIZES = (2, 3, 4, 5, 6, 7)
QUERIES_PER_SIZE = 8
SHARDS = 2
#: Buffer pool and decoded-block cache budget: far above the index size.
CACHE_BYTES = 64 * 1024 * 1024
PASS_REQUESTS = 20
SETUP_REPEATS = 3
INDEX = "zipf"
CLIENTS = os.cpu_count() or 1


def make_inputs(seed: int):
    from repro.baselines import NaiveScanIndex
    from repro.core.records import Dataset
    from repro.datasets.synthetic import SyntheticConfig, generate_transactions
    from repro.workloads.queries import WorkloadGenerator

    transactions = [
        sorted(items)
        for items in generate_transactions(SyntheticConfig(num_records=NUM_RECORDS, seed=seed))
    ]
    dataset = Dataset.from_transactions(transactions)
    generator = WorkloadGenerator(dataset, seed=seed + 1)
    pool, seen = [], set()
    for size in SIZES:
        for _ in range(QUERIES_PER_SIZE):
            for make in (
                generator.subset_query,
                generator.equality_query,
                generator.superset_query,
                generator.composite_query,
            ):
                wire = make(size).expr.to_dict()
                key = json.dumps(wire, sort_keys=True)
                if key not in seen:
                    seen.add(key)
                    pool.append(wire)
    random.Random(seed + 2).shuffle(pool)
    from repro.core.query.expr import expr_from_dict

    oracle = NaiveScanIndex(dataset)
    answers = [oracle.evaluate(expr_from_dict(wire)) for wire in pool]
    return transactions, pool, answers


class Server:
    """The benchmark's launcher for the server process."""

    def __init__(self, inject) -> None:
        args = [sys.executable, str(Path(__file__).with_name("server_proc.py"))]
        args += ["--workers", str(CLIENTS)]
        for spec in inject:
            args += ["--inject", spec]
        self.process = subprocess.Popen(
            args, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        ready = self._read()
        self.port = ready["port"]

    def _read(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("the server process exited unexpectedly")
        return json.loads(line)

    def command(self, text: str) -> dict:
        self.process.stdin.write(text + "\n")
        self.process.stdin.flush()
        return self._read()

    def stop(self) -> None:
        """Ask the server to exit and wait for it; safe to call twice."""
        if self.process.stdin.closed:
            return
        try:
            self.process.stdin.write("quit\n")
            self.process.stdin.close()
        except OSError:
            pass
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


def _start(transactions, pool, inject):
    """Start a server, create the index, warm pool and caches: the timed set-up."""
    from repro.service import ServiceClient

    server = Server(inject)
    try:
        with ServiceClient(port=server.port, timeout=120.0) as client:
            created = client.create_index(
                INDEX,
                transactions=transactions,
                shards=SHARDS,
                cache_bytes=CACHE_BYTES,
                decoded_cache_bytes=CACHE_BYTES,
            )
            warm = client.batch([{"expr": wire} for wire in pool], index=INDEX)
    except BaseException:
        server.stop()
        raise
    return server, created, warm


class _Passes:
    """Closed-loop passes of Zipf-drawn requests on CLIENTS keep-alive connections.

    Each client thread keeps one connection for the whole run; a barrier
    lets the main thread clear the result cache between passes.
    """

    def __init__(self, server, pool, answers, seed: int) -> None:
        self.server = server
        self.pool = pool
        self.answers = answers
        self.rng = random.Random(seed + 3)
        self.weights = [1.0 / rank for rank in range(1, len(pool) + 1)]
        self.samples: list[tuple[float, float, bool]] = []
        self.failed = 0
        self.wall = 0.0
        self._lock = threading.Lock()
        self._todo: list[int] = []
        self._stop = False
        self._barrier = threading.Barrier(CLIENTS + 1, timeout=300)

    def _client(self) -> None:
        from repro.service import ServiceClient

        with ServiceClient(port=self.server.port, max_retries=0) as client:
            while True:
                self._barrier.wait()
                if self._stop:
                    return
                while True:
                    with self._lock:
                        if not self._todo:
                            break
                        slot = self._todo.pop()
                    self._request(client, slot)
                self._barrier.wait()

    def _request(self, client, slot: int) -> None:
        start = time.perf_counter()
        try:
            reply = client.query_expr(INDEX, self.pool[slot])
        except Exception:  # a failing request is counted, not fatal
            with self._lock:
                self.failed += 1
            return
        rtt_ms = (time.perf_counter() - start) * 1000.0
        ok = reply["record_ids"] == self.answers[slot]
        with self._lock:
            self.samples.append((rtt_ms, reply["latency_ms"], reply["cached"]))
            if not ok:
                self.failed += 1

    def run(self, seconds: float) -> None:
        threads = [threading.Thread(target=self._client) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        try:
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline:
                self.server.command(f"clear {INDEX}")
                self._todo = self.rng.choices(
                    range(len(self.pool)), self.weights, k=PASS_REQUESTS
                )
                start = time.perf_counter()
                self._barrier.wait()
                self._barrier.wait()
                self.wall += time.perf_counter() - start
        finally:
            self._stop = True
            self._barrier.wait()
            for thread in threads:
                thread.join()

    @property
    def attempted(self) -> int:
        return len(self.samples) + self.failed


def run(seed: int, seconds: float, tracer=None) -> dict:
    from repro.storage.stats import DiskModel, IOSnapshot

    transactions, pool, answers = make_inputs(seed)
    inject = [
        f"{layer}={delay * 1e6}" for layer, delay in (tracer.delays if tracer else {}).items()
    ]
    servers = []

    def setup():
        started = _start(transactions, pool, inject)
        servers.append(started[0])
        return started

    try:
        setup_s, (server, created, warm) = timed_setup(
            setup,
            SETUP_REPEATS,
            discard=lambda started: started[0].stop(),
            rescale=False,
        )
        warm_failed = abs(len(warm) - len(answers)) + sum(
            reply["record_ids"] != answer for reply, answer in zip(warm, answers)
        )
        untraced = _Passes(server, pool, answers, seed)
        untraced.run(seconds if tracer is None else seconds / 2)
        report = server.command("report")
        out = {}
        passes = [untraced]
        if tracer is not None:
            traced = _Passes(server, pool, answers, seed + 1000)
            server.command("trace on")
            before = server.command("report")
            traced.run(seconds / 2)
            after = server.command("report")
            server.command("trace off")
            passes.append(traced)
            io = IOSnapshot(**after["io"]) - IOSnapshot(**before["io"])
            executed = sum(1 for sample in traced.samples if not sample[2])
            rtt = [sample[0] for sample in traced.samples]
            out["trace"] = {
                "snapshot": {k: tuple(v) for k, v in after["snapshot"].items()},
                "operations": len(traced.samples),
                "queries": len(traced.samples),
                "e2e_ms": statistics.fmean(rtt),
                "overhead_share": statistics.fmean(rtt)
                / statistics.fmean(s[0] for s in untraced.samples)
                - 1.0,
            }
            out["io"] = io_summary(io, executed, DiskModel())
            out["side"] = {
                "rtt_ms": statistics.fmean(rtt),
                "transport_ms": statistics.fmean(s[0] - s[1] for s in traced.samples),
                "shed": after["shed"],
                "cache_hit_ratio": ratio(
                    sum(1 for s in traced.samples if s[2]), len(traced.samples)
                ),
            }
    finally:
        for started in servers:
            started.stop()

    rtts = [sample[0] for sample in untraced.samples]
    out.update(
        attempted=sum(p.attempted for p in passes) + len(warm),
        failed=sum(p.failed for p in passes) + warm_failed,
        samples=len(rtts),
        metrics={
            "setup_s": metric(setup_s, "s"),
            "query_p50_ms": metric(percentile(rtts, 50), "ms"),
            "query_p99_ms": metric(percentile(rtts, 99), "ms"),
            "query_throughput_qps": metric(len(rtts) / untraced.wall, "1/s"),
            "index_bytes_per_record": metric(created["size_bytes"] / created["records"], "B"),
            "peak_rss_mb": metric(report["peak_rss_mb"], "MB"),
        },
    )
    return out
