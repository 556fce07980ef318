"""Shared measurement machinery for the OIF benchmark workloads.

Timing: the in-process workloads are CPU-bound pure Python, and host speed
on a small shared VM drifts by tens of percent from one few-second window to
the next.  :class:`RefClock` runs a fixed pure-Python reference kernel next to
every timed operation and rescales each operation by the local kernel speed,
so a time reads "milliseconds on a host where the kernel takes
``REF_NOMINAL_MS``".  A set-up is too long to bracket that way, so the kernel
is sampled on a timer while it runs (:func:`timed_setup`).  The HTTP
workload is bound by a transport timer, not by CPU, and is reported in plain
wall-clock time, its set-up included.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import signal
import statistics
import struct
import sys
import time
from pathlib import Path

#: Repository root of the checkout the benchmark runs in.
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for the durable workload's files; removed at exit.
WORK_DIR = ROOT / ".oifbench_work"

#: The reference kernel's time on the reference host; rescaled times read
#: as if every operation ran at that speed.
REF_NOMINAL_MS = 0.25
#: Half-width, in samples, of the rolling median that smooths kernel timings.
REF_WINDOW = 12
#: Period of the reference-kernel samples taken while a set-up runs.
SETUP_SAMPLE_S = 0.05

#: Length-prefixed keys and values, parsed by the kernel like a B-tree page.
_REF_PAGE = b"".join(
    struct.pack(">H", 12) + bytes(range(12)) + struct.pack(">H", 6) + bytes(6)
    for _ in range(160)
)


def ref_kernel() -> int:
    """A fixed piece of pure Python: an arithmetic loop and a page-parsing loop.

    It shares the interpreter-bound character of the program's hot paths
    (loops, slicing, ``struct`` unpacking) but no code with the program, so
    a change to the program never changes the kernel.
    """
    total = 0
    for value in range(1200):
        total += value * value % 7
    unpack = struct.unpack_from
    page, offset, end, keys = _REF_PAGE, 0, len(_REF_PAGE), []
    while offset < end:
        (length,) = unpack(">H", page, offset)
        keys.append(page[offset + 2:offset + 2 + length])
        offset += 2 + length
    return total + len(keys)


class RefClock:
    """Times operations together with an interleaved reference kernel.

    ``time(fn)`` runs the kernel, then ``fn``, and records both durations;
    ``best_of`` keeps the fastest of several cold runs of ``fn``.
    :meth:`normalized` rescales every recorded duration by the rolling
    median of the kernel timings around it.
    """

    def __init__(self) -> None:
        self.kernel_s: list[float] = []
        #: Per operation: the fastest try, all tries together, and the try count.
        self.op_s: list[float] = []
        self.total_s: list[float] = []
        self.tries: list[int] = []
        self.tags: list[str] = []

    def probe(self) -> float:
        start = time.perf_counter()
        ref_kernel()
        return time.perf_counter() - start

    def time(self, fn, tag: str = ""):
        """Run ``fn`` after one kernel probe; nothing is recorded if it raises."""
        return self.best_of(fn, lambda: None, 1, tag)[0]

    def best_of(self, fn, prepare, tries: int, tag: str = ""):
        """Run ``prepare(); fn()`` ``tries`` times after one kernel probe; keep the fastest.

        ``prepare`` is untimed.  Returns every result, so each can be checked.
        """
        kernel = self.probe()
        results, times = [], []
        for _ in range(tries):
            prepare()
            start = time.perf_counter()
            results.append(fn())
            times.append(time.perf_counter() - start)
        self.op_s.append(min(times))
        self.total_s.append(sum(times))
        self.tries.append(tries)
        self.kernel_s.append(kernel)
        self.tags.append(tag)
        return results

    def normalized(self, times: "list[float] | None" = None) -> list[float]:
        """Every operation's time (default: its fastest try), in seconds at reference speed."""
        scale = REF_NOMINAL_MS / 1000.0
        kernels = self.kernel_s
        out = []
        for position, op in enumerate(self.op_s if times is None else times):
            window = kernels[max(0, position - REF_WINDOW): position + REF_WINDOW + 1]
            out.append(op * scale / statistics.median(window))
        return out


def timed_setup(fn, repeats: int, discard=None, rescale: bool = True):
    """Run ``fn`` ``repeats`` times; median seconds and the last result.

    With ``rescale`` each repetition's time is rescaled by the reference
    kernel sampled while it runs (see :func:`_sampled`), so it reads as
    seconds at reference speed; without, it is wall-clock time.  Before each
    repetition the previous result is passed to ``discard`` and dropped, and
    garbage is collected, all outside the timed region: every set-up starts
    from the same heap, and only one result is alive at a time.
    """
    times = []
    result = None
    for _ in range(repeats):
        if result is not None and discard is not None:
            discard(result)
        result = None
        gc.collect()
        if rescale:
            elapsed, result = _sampled(fn)
        else:
            start = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - start
        times.append(elapsed)
    return statistics.median(times), result


def _sampled(fn):
    """Run ``fn`` with the reference kernel sampled on a timer; rescaled seconds and result.

    A set-up takes up to a few seconds, and host speed can change within it,
    so kernels before and after it do not tell how fast it ran.  A timer
    signal runs the kernel every ``SETUP_SAMPLE_S`` seconds while ``fn``
    runs, and once just before and just after.  The samples' own time is
    subtracted, and the rest is multiplied by the kernel's mean speed over
    the samples (the mean of their inverse times).
    """
    kernels: list[float] = []

    def sample(*_) -> None:
        begin = time.perf_counter()
        ref_kernel()
        kernels.append(time.perf_counter() - begin)

    previous = signal.signal(signal.SIGALRM, sample)
    try:
        sample()
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SETUP_SAMPLE_S, SETUP_SAMPLE_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start - sum(kernels[1:])
        sample()
    finally:
        signal.signal(signal.SIGALRM, previous)
    speed = statistics.fmean(1.0 / kernel for kernel in kernels)
    return elapsed * speed * REF_NOMINAL_MS / 1000.0, result


def percentile(values, q: float) -> float:
    """Percentile ``q`` (0..100) of ``values``, interpolated between samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def settle() -> None:
    """Call once inputs and oracles exist, before any program work is measured.

    Moves everything alive so far (the benchmark's inputs and oracles) out of
    the cyclic collector's reach, so the collector's pauses during the run
    scale with the program's own objects rather than with the oracle's, and
    resets the peak-RSS mark.
    """
    gc.collect()
    gc.freeze()
    reset_peak_rss()


def reset_peak_rss() -> None:
    """Reset this process's RSS high-water mark (Linux ``clear_refs``)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def write_chars() -> int:
    """Bytes this process has passed to write calls (``/proc/self/io`` wchar)."""
    with open("/proc/self/io") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("wchar missing from /proc/self/io")


def steal_ticks() -> int:
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def host_record(steal_start: int) -> dict:
    """Host facts for one run; call once the program's ``src/`` is importable."""
    from repro.obs.runmeta import git_revision

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_rev": git_revision(ROOT) or "unknown",
        "steal_ticks": steal_ticks() - steal_start,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def emit(result: dict, host: dict, notes: "dict | None" = None) -> None:
    """Print the host record and notes, then the result as the last stdout line."""
    print("# host " + json.dumps(host, sort_keys=True))
    if notes:
        print("# notes " + json.dumps(notes, sort_keys=True))
    sys.stdout.flush()
    print(json.dumps(result, sort_keys=True))
    sys.stdout.flush()


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def io_summary(delta, queries: int, disk_model) -> dict:
    """Per-query storage counters from an ``IOSnapshot`` covering ``queries`` queries."""
    queries = max(1, queries)
    return {
        "pages_per_query": delta.page_reads / queries,
        "modeled_io_ms_per_query": disk_model.io_time_ms(
            delta.random_reads, delta.sequential_reads
        ) / queries,
        "random_reads_per_query": delta.random_reads / queries,
        "sequential_reads_per_query": delta.sequential_reads / queries,
        "pool_hit_ratio": ratio(delta.cache_hits, delta.logical_reads),
        "decoded_hit_ratio": ratio(
            delta.decoded_hits, delta.decoded_hits + delta.decoded_misses
        ),
    }
