"""Sensitivity self-check: can the benchmark see a slowdown in each layer?

For every layer, a fixed delay (a sleep) is injected at the layer's entry points
(through the same wrappers the traced run uses).  The check passes for a
layer when, against a baseline run with the wrappers installed but no
delay:

* on the workload that exercises the layer, the layer's own metric and its
  mapped end-to-end metric both move by more than that end-to-end metric's
  bound in ``BENCHMARK.json``;
* on a workload where the layer is off the critical path, the mapped
  end-to-end metric stays within its bound.

Usage (from the root of a checkout; about fifteen minutes)::

    python3 oifbench/sensitivity.py

Prints one line per layer and exits non-zero if any layer fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Length and seed of every run the check makes.
SECONDS = 16
SEED = 101

#: layer -> (delay in microseconds, layer metric, exercising workload,
#: mapped end-to-end metric, workload that bypasses the layer)
CHECKS = {
    "service.http": (20_000, "service.http.transport_ms", "serve-zipf", "query_p50_ms", "paper-cold"),
    "service.admission": (20_000, "service.admission.wait_ms", "serve-zipf", "query_p50_ms", "paper-cold"),
    "service.executor": (20_000, "service.executor.self_ms", "serve-zipf", "query_p50_ms", "paper-cold"),
    "service.cache": (20_000, "service.cache.self_ms", "serve-zipf", "query_throughput_qps", "paper-cold"),
    "service.index_manager": (20_000, "service.index_manager.self_ms", "serve-zipf", "query_p50_ms", "paper-cold"),
    "core.shard": (20_000, "core.shard.self_ms", "serve-zipf", "query_p50_ms", "paper-cold"),
    "core.query": (1_000, "core.query.fetch_self_ms", "paper-cold", "query_p50_ms", "serve-zipf"),
    "core.oif": (500, "core.oif.self_ms", "paper-cold", "query_p50_ms", "serve-zipf"),
    "compression": (500, "compression.decode_ms", "paper-cold", "query_p50_ms", "serve-zipf"),
    "core.intersect": (500, "core.intersect.self_ms", "paper-cold", "query_p50_ms", "serve-zipf"),
    "storage": (100, "storage.get_page_self_ms", "paper-cold", "query_p50_ms", "serve-zipf"),
    "core.updates": (5_000, "core.updates.self_ms", "ingest-durable", "query_throughput_qps", "paper-cold"),
    "durability": (5_000, "durability.self_ms", "ingest-durable", "query_throughput_qps", "paper-cold"),
}


def _run(workload: str, inject: str) -> dict:
    command = [
        sys.executable, str(ROOT / "oifbench" / "run.py"),
        "--workload", workload, "--seed", str(SEED), "--seconds", str(SECONDS),
        "--trace", "1", "--inject", inject,
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} failed:\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    notes = next(line for line in lines if line.startswith("# notes "))
    return {
        "layer": {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()},
        "e2e": json.loads(notes[len("# notes "):])["end_to_end"],
    }


def _change(after: float, before: float) -> float:
    """Relative size of a move, either direction."""
    if not before:
        return float("inf") if after else 0.0
    return abs(after - before) / before


def main() -> int:
    bounds = {
        entry["name"]: entry["bound"]
        for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    baselines: dict[str, dict] = {}

    def baseline(workload: str) -> dict:
        if workload not in baselines:
            # Zero delay: the wrappers are installed exactly as in the injected runs.
            baselines[workload] = _run(workload, "storage=0")
        return baselines[workload]

    failures = 0
    for layer in CHECKS:
        delay_us, layer_metric, hit, e2e_metric, bypass = CHECKS[layer]
        bound = bounds[e2e_metric]
        spec = f"{layer}={delay_us}"
        on_hit = _run(hit, spec)
        on_bypass = _run(bypass, spec)
        moved_layer = _change(on_hit["layer"][layer_metric], baseline(hit)["layer"][layer_metric])
        moved_e2e = _change(on_hit["e2e"][e2e_metric], baseline(hit)["e2e"][e2e_metric])
        moved_bypass = _change(on_bypass["e2e"][e2e_metric], baseline(bypass)["e2e"][e2e_metric])
        ok = moved_layer > bound and moved_e2e > bound and moved_bypass <= bound
        failures += not ok
        print(
            f"{'PASS' if ok else 'FAIL'} {layer:22s} +{delay_us}us  "
            f"{hit}: {layer_metric} moved {moved_layer:.0%}, {e2e_metric} moved "
            f"{moved_e2e:.0%} (bound {bound:.0%})  {bypass}: {e2e_metric} moved "
            f"{moved_bypass:.1%}",
            flush=True,
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
