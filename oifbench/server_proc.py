"""The serve-zipf server process: a ``ServiceServer`` driven over stdin/stdout.

Started by :mod:`serve_zipf` as ``python3 server_proc.py --workers N
[--inject LAYER=US ...]``.  It prints ``READY <port>``, then answers one
JSON line per command line on stdin:

* ``trace on`` / ``trace off`` — install or remove the per-layer wrappers
  (they are installed for the whole life of the process when delays are
  injected);
* ``clear <index>`` — drop the index's entries from the result cache;
* ``report`` — per-layer snapshot, summed I/O counters of every resident
  index, admission sheds and this process's peak RSS;
* ``quit`` (or end of input) — shut the server down and exit.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import ROOT, peak_rss_mb, reset_peak_rss  # noqa: E402

sys.path.insert(0, str(ROOT / "src"))


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--inject", action="append", default=[])
    args = parser.parse_args()

    from layers import Tracer
    from repro.service import ServiceServer
    from run import parse_injections
    from repro.storage.stats import IOSnapshot

    tracer = Tracer(parse_injections(args.inject))
    if args.inject:
        tracer.pin()
    reset_peak_rss()
    server = ServiceServer(port=0, max_workers=args.workers, quiet=True).start()
    _reply({"ready": True, "port": server.port})
    try:
        for line in sys.stdin:
            command = line.split()
            if not command or command[0] == "quit":
                break
            if command == ["trace", "on"]:
                tracer.reset()
                tracer.install()
                _reply({"ok": True})
            elif command == ["trace", "off"]:
                tracer.uninstall()
                _reply({"ok": True})
            elif command[0] == "clear":
                _reply({"invalidated": server.cache.invalidate_index(command[1])})
            elif command == ["report"]:
                io = IOSnapshot()
                for entry in server.manager:
                    io = io + entry.index.io_snapshot()
                _reply(
                    {
                        "snapshot": tracer.snapshot(),
                        "io": dataclasses.asdict(io),
                        "shed": server.executor.admission.shed_total,
                        "peak_rss_mb": peak_rss_mb(),
                    }
                )
            else:
                _reply({"error": f"unknown command {line.strip()!r}"})
    finally:
        server.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
