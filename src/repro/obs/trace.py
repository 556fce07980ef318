"""Zero-dependency trace spans, contextvar-propagated across thread pools.

A *trace* is one tree of :class:`Span` nodes describing where a single query
spent its time.  Two granularities coexist:

* **spans** (``with trace.span("plan"):``) — real tree nodes for coarse
  phases: the root query, planning, execution, one node per fanned-out shard.
  Nested ``span()`` calls parent correctly because the active span lives in a
  :mod:`contextvars` variable, and :func:`wrap` ships a copy of the caller's
  context into pool workers, so shard spans land under the right query even
  on a shared executor;
* **stages** (``token = trace.stage_begin() ... trace.stage_end("decode",
  token)``) — aggregate counters on the *current* span for hot-loop
  instrumentation points (block scans, v-byte decodes, buffer-pool fetches,
  intersections).  Each stage records its **self time**: an enclosing stage
  subtracts the time of stages nested inside it, so the per-stage totals of a
  span never double-count and always sum to at most the span's duration.

Everything is disabled by default.  When disabled, ``begin`` returns ``None``
and every other entry point is a couple of attribute checks — no
``perf_counter`` calls, no allocation — so the instrumented hot paths run at
their uninstrumented speed and the benchmarked page counts and results are
bit-identical.  A sampling knob (``configure(sample_every=N)``) traces only
every N-th query for always-on production use.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar, copy_context
from time import perf_counter
from typing import Callable, Iterator

_enabled = False
_sample_every = 1
_sample_counter = 0
_sample_lock = threading.Lock()

#: The innermost open span of the current logical context (None = not tracing).
_current: "ContextVar[_Active | None]" = ContextVar("repro-trace", default=None)


class Span:
    """One node of a trace tree: a named phase with nested children and stages."""

    __slots__ = ("name", "meta", "started", "duration_ms", "children", "stages", "_lock")

    def __init__(self, name: str, meta: dict) -> None:
        self.name = name
        self.meta = meta
        self.started = perf_counter()
        self.duration_ms = 0.0
        self.children: list[Span] = []
        #: stage name -> [count, total self-time ms]; written only by the
        #: thread owning the span's context, read after the span closes.
        self.stages: dict[str, list] = {}
        self._lock = threading.Lock()

    def close(self) -> None:
        self.duration_ms = (perf_counter() - self.started) * 1000.0

    def adopt(self, child: "Span") -> None:
        """Append a finished child (fan-out workers adopt concurrently)."""
        with self._lock:
            self.children.append(child)

    def adopt_rendered(self, tree: dict) -> None:
        """Append an already-rendered child tree (from another process).

        Worker processes cannot share contextvars with the parent, so they
        finish their spans locally and ship the rendered dict back;
        :meth:`as_dict` splices these in next to the live children.
        """
        with self._lock:
            self.children.append(tree)

    def add_stage(self, name: str, elapsed_ms: float) -> None:
        slot = self.stages.get(name)
        if slot is None:
            self.stages[name] = [1, elapsed_ms]
        else:
            slot[0] += 1
            slot[1] += elapsed_ms

    def as_dict(self) -> dict:
        out: dict = {"name": self.name, "duration_ms": round(self.duration_ms, 4)}
        if self.meta:
            out["meta"] = dict(self.meta)
        if self.stages:
            out["stages"] = {
                name: {"count": count, "total_ms": round(total, 4)}
                for name, (count, total) in self.stages.items()
            }
        if self.children:
            out["children"] = [
                child if isinstance(child, dict) else child.as_dict()
                for child in self.children
            ]
        return out


class _Active:
    """The contextvar payload: the open span plus its stage-frame stack."""

    __slots__ = ("span", "frames", "token")

    def __init__(self, span: Span) -> None:
        self.span = span
        #: One accumulator per open stage: time consumed by *nested* stages,
        #: subtracted on close so each stage reports self time only.
        self.frames: list[list] = []
        self.token = None


# -- configuration -------------------------------------------------------------------


def configure(enabled: bool = True, sample_every: int = 1) -> None:
    """Turn tracing on/off globally; trace every ``sample_every``-th query."""
    global _enabled, _sample_every, _sample_counter
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    with _sample_lock:
        _enabled = enabled
        _sample_every = sample_every
        _sample_counter = 0


def disable() -> None:
    configure(enabled=False)


def is_active() -> bool:
    """Whether the calling context is inside an open trace."""
    return _current.get() is not None


# -- roots ---------------------------------------------------------------------------


def begin(name: str, **meta) -> "_Active | None":
    """Open a root span for one query; ``None`` when disabled or sampled out.

    The returned handle must be passed to :func:`finish` (or :func:`discard`)
    by the same logical context that called ``begin``.
    """
    global _sample_counter
    if not _enabled:
        return None
    if _sample_every > 1:
        with _sample_lock:
            sampled = _sample_counter % _sample_every == 0
            _sample_counter += 1
        if not sampled:
            return None
    active = _Active(Span(name, meta))
    active.token = _current.set(active)
    return active


def finish(active: "_Active | None") -> "dict | None":
    """Close a root opened by :func:`begin` and return its rendered tree."""
    if active is None:
        return None
    active.span.close()
    _current.reset(active.token)
    return active.span.as_dict()


def discard(active: "_Active | None") -> None:
    """Abandon a root (error paths): restore the context, render nothing."""
    if active is not None:
        _current.reset(active.token)


# -- nested spans --------------------------------------------------------------------


@contextmanager
def span(name: str, **meta) -> Iterator["Span | None"]:
    """Open a child span under the current one; no-op outside a trace."""
    parent = _current.get()
    if parent is None:
        yield None
        return
    child = Span(name, meta)
    active = _Active(child)
    token = _current.set(active)
    try:
        yield child
    finally:
        child.close()
        _current.reset(token)
        parent.span.adopt(child)


def attach_rendered(tree: "dict | None") -> None:
    """Adopt a pre-rendered span tree as a child of the current span.

    The cross-process graft point: a shard worker traces its evaluation in
    its own interpreter, renders the tree with :meth:`Span.as_dict` and ships
    the dict home; the parent calls this inside the query's span so the
    worker's phases land under the right query.  No-op outside a trace or
    for ``None`` (the worker was not tracing).
    """
    if tree is None:
        return
    active = _current.get()
    if active is not None:
        active.span.adopt_rendered(tree)


# -- hot-loop stages -----------------------------------------------------------------


def stage_begin() -> "float | None":
    """Start timing one stage; returns ``None`` (do nothing) outside a trace."""
    active = _current.get()
    if active is None:
        return None
    active.frames.append([0.0])
    return perf_counter()


def stage_end(name: str, token: "float | None") -> None:
    """Close the stage opened with ``token``, charging self time to the span."""
    if token is None:
        return
    active = _current.get()
    if active is None or not active.frames:
        return
    elapsed_ms = (perf_counter() - token) * 1000.0
    frame = active.frames.pop()
    if active.frames:
        active.frames[-1][0] += elapsed_ms
    active.span.add_stage(name, elapsed_ms - frame[0])


# -- pool propagation ----------------------------------------------------------------


def wrap(fn: Callable) -> Callable:
    """Capture the caller's trace context for execution on another thread.

    Identity when not tracing (zero overhead); otherwise the returned
    callable runs ``fn`` inside a private copy of the submitting context, so
    ``span()`` calls in a pool worker parent under the submitting query.
    Capture one wrapper per task — a single context copy cannot run
    concurrently.
    """
    if _current.get() is None:
        return fn
    ctx = copy_context()

    def _in_context(*args, **kwargs):
        return ctx.run(fn, *args, **kwargs)

    return _in_context


# -- rendering -----------------------------------------------------------------------


def format_tree(tree: "dict | None", indent: int = 0) -> str:
    """Human-readable nested rendering of a span tree (the ``--trace`` output)."""
    if tree is None:
        return "(no trace recorded)"
    pad = "  " * indent
    meta = tree.get("meta")
    suffix = (
        " [" + ", ".join(f"{k}={v}" for k, v in sorted(meta.items())) + "]"
        if meta
        else ""
    )
    lines = [f"{pad}{tree['name']}{suffix} {tree['duration_ms']:.3f}ms"]
    for name, stage in sorted(tree.get("stages", {}).items()):
        lines.append(
            f"{pad}  · {name} {stage['total_ms']:.3f}ms x{stage['count']}"
        )
    for child in tree.get("children", ()):
        lines.append(format_tree(child, indent + 1))
    return "\n".join(lines)
