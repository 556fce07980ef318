"""Streaming, cursor-based execution of query plans.

A :class:`Cursor` lazily yields the record ids a plan produces.  Laziness is
what makes ``limit`` cheap: index probes that can stream (the OIF yields
single-item subset answers block by block) stop reading pages as soon as the
cursor is closed, instead of materializing the full result set first.

Ids are yielded in *plan order* — the order the driving probe produces them —
which for disk-backed indexes is physical (page) order, not ascending id
order.  Materializing callers (``evaluate``, ``measured_execute``, the
experiment runner) sort afterwards; a cursor never yields the same id twice.

Each cursor owns a :class:`~repro.storage.stats.ReadContext` that every page
read of its traversal is charged to, so the page cost of exactly this
traversal can be read off at any point (:meth:`Cursor.io_delta`) and
aggregated into a :class:`~repro.core.interfaces.QueryResult` — exact even
when many cursors interleave on the same buffer pool, which is what lets the
service layer run queries concurrently with per-query accounting.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.core.query.expr import Expr
from repro.core.query.planner import (
    FilterPlan,
    Plan,
    ProbePlan,
    ScanPlan,
    SlicePlan,
    UnionPlan,
)
from repro.errors import QueryError
from repro.storage.stats import ReadContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.interfaces import SetContainmentIndex
    from repro.storage.stats import IOSnapshot


class Cursor:
    """Lazy iterator over the record ids of one executed expression."""

    def __init__(
        self,
        index: "SetContainmentIndex",
        plan: Plan,
        expr: Expr,
        ctx: "ReadContext | None" = None,
    ) -> None:
        self.index = index
        self.plan = plan
        self.expr = expr
        #: The read context every page access of this traversal is charged to.
        self.ctx = ctx if ctx is not None else ReadContext()
        self._iterator = _run(plan, index, self.ctx)
        self._consumed = 0
        self._exhausted = False

    # -- iteration -------------------------------------------------------------------

    def __iter__(self) -> Iterator[int]:
        return self

    def __next__(self) -> int:
        try:
            record_id = next(self._iterator)
        except StopIteration:
            self._exhausted = True
            raise
        self._consumed += 1
        return record_id

    def fetch(self, count: int) -> list[int]:
        """Pull up to ``count`` more ids (fewer when the stream runs dry)."""
        if count < 0:
            raise QueryError(f"fetch count must be non-negative, got {count}")
        out: list[int] = []
        for record_id in self:
            out.append(record_id)
            if len(out) >= count:
                break
        return out

    def fetch_all(self) -> list[int]:
        """Drain the remaining ids, in plan order."""
        return list(self)

    # -- introspection ---------------------------------------------------------------

    @property
    def consumed(self) -> int:
        """Number of ids yielded so far."""
        return self._consumed

    @property
    def exhausted(self) -> bool:
        """Whether the underlying stream has run dry."""
        return self._exhausted

    def io_delta(self) -> "IOSnapshot":
        """The I/O charged to exactly this cursor's traversal so far.

        Read from the cursor's own :class:`ReadContext`, not from a diff of
        the pool-wide counters, so the number is exact even while other
        queries interleave on the same storage environment(s).
        """
        return self.ctx.snapshot()

    def explain(self) -> str:
        """The plan being executed, rendered for humans."""
        return self.plan.explain()


def _run(plan: Plan, index: "SetContainmentIndex", ctx: ReadContext) -> Iterator[int]:
    """Interpret one plan node as a generator of record ids.

    ``ctx`` is the owning cursor's read context; every operator threads it
    down so the probes (and, through them, the storage engine) charge their
    page reads to this traversal.
    """
    if isinstance(plan, ProbePlan):
        return _run_probe(plan, index, ctx)
    if isinstance(plan, FilterPlan):
        return _run_filter(plan, index, ctx)
    if isinstance(plan, UnionPlan):
        return _run_union(plan, index, ctx)
    if isinstance(plan, ScanPlan):
        return _run_scan(plan, index, ctx)
    if isinstance(plan, SlicePlan):
        return _run_slice(plan, index, ctx)
    raise QueryError(f"cannot execute plan node {plan!r}")


def _run_probe(
    plan: ProbePlan, index: "SetContainmentIndex", ctx: ReadContext
) -> Iterator[int]:
    # A generator wrapper, not `return index.probe(...)` directly: the probe
    # (which may evaluate a whole predicate eagerly) must not start until the
    # cursor is first pulled, or opening a cursor would already pay the query.
    yield from index.probe(plan.leaf, ctx)


def _run_filter(
    plan: FilterPlan, index: "SetContainmentIndex", ctx: ReadContext
) -> Iterator[int]:
    # Residual predicates evaluate against the memory-resident dataset, so
    # the filter itself charges nothing to ctx — only its source plan does.
    dataset = index.dataset
    for record_id in _run(plan.source, index, ctx):
        items = dataset.get(record_id).items
        if all(predicate.matches(items) for predicate in plan.residual):
            yield record_id


def _run_union(
    plan: UnionPlan, index: "SetContainmentIndex", ctx: ReadContext
) -> Iterator[int]:
    seen: set[int] = set()
    for source in plan.sources:
        for record_id in _run(source, index, ctx):
            if record_id not in seen:
                seen.add(record_id)
                yield record_id


def _run_scan(
    plan: ScanPlan, index: "SetContainmentIndex", ctx: ReadContext
) -> Iterator[int]:
    predicate = plan.predicate
    for record in index.dataset:
        if predicate.matches(record.items):
            yield record.record_id


def _run_slice(
    plan: SlicePlan, index: "SetContainmentIndex", ctx: ReadContext
) -> Iterator[int]:
    source = _run(plan.source, index, ctx)
    for _ in range(plan.offset):
        if next(source, None) is None:
            return
    if plan.count is None:
        yield from source
        return
    remaining = plan.count
    if remaining <= 0:
        return
    for record_id in source:
        yield record_id
        remaining -= 1
        if remaining <= 0:
            return
