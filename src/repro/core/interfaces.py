"""Public interface shared by every set-containment index in the library.

The paper compares several access methods (the OIF, the classic inverted
file, an unordered B-tree variant, and — in related work — signature files).
All of them answer the same three predicates, so they implement one abstract
base class, :class:`SetContainmentIndex`, and the experiment runner treats
them interchangeably.

The single entry point is :meth:`SetContainmentIndex.execute`: it accepts
any :class:`~repro.core.query.expr.Expr` (leaves, ``And``/``Or``/``Not``
combinations, ``limit``/``offset`` modifiers), plans it rarest-conjunct-first
with the dataset's item-frequency statistics and returns a streaming
:class:`~repro.core.query.cursor.Cursor`.  :meth:`~SetContainmentIndex.evaluate`
materializes that cursor and :meth:`~SetContainmentIndex.measured_execute`
packages it with its I/O cost; a single predicate named by string is the leaf
``QueryType.parse(name).leaf(items)``.  Subclasses implement only the three
per-predicate probe primitives (``_probe_subset`` / ``_probe_equality`` /
``_probe_superset``).
"""

from __future__ import annotations

import enum
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.core.items import Item
from repro.core.query.cursor import Cursor
from repro.core.query.expr import (
    Equality,
    Expr,
    Leaf,
    Subset,
    Superset,
    leaf_for,
)
from repro.core.query.planner import Planner
from repro.core.records import Dataset
from repro.errors import QueryError
from repro.obs import trace
from repro.storage.kvstore import Environment
from repro.storage.stats import IOSnapshot, IOStatistics, ReadContext


class QueryType(enum.Enum):
    """The three containment predicates of Section 2."""

    SUBSET = "subset"
    EQUALITY = "equality"
    SUPERSET = "superset"

    @classmethod
    def parse(cls, value: "QueryType | str") -> "QueryType":
        """Accept either an enum member or its string name/value."""
        if isinstance(value, cls):
            return value
        if not isinstance(value, str):
            raise QueryError(
                f"unknown query type {value!r}; expected one of "
                f"{[member.value for member in cls]}"
            )
        try:
            return cls(value.lower())
        except ValueError:
            raise QueryError(
                f"unknown query type {value!r}; expected one of "
                f"{[member.value for member in cls]}"
            ) from None

    def leaf(self, items: Iterable[Item]) -> Leaf:
        """The expression leaf evaluating this predicate over ``items``."""
        return leaf_for(self.value, items)


@dataclass(frozen=True)
class QueryResult:
    """Answer of one query expression plus the I/O it caused.

    ``query_type`` is the predicate for single-leaf expressions and ``None``
    for composite ones; ``query_items`` is the union of all items the
    expression references (what the figures group by).
    """

    query_type: "QueryType | None"
    query_items: frozenset
    record_ids: tuple[int, ...]
    page_accesses: int
    random_reads: int
    sequential_reads: int
    io_time_ms: float
    cpu_time_ms: float
    expr: "Expr | None" = None
    #: Decoded-block cache lookups of this traversal (CPU-side counters; a
    #: hit skips the v-byte decode but still pays its page access).
    decoded_hits: int = 0
    decoded_misses: int = 0

    @property
    def cardinality(self) -> int:
        """Number of matching records."""
        return len(self.record_ids)

    @property
    def total_time_ms(self) -> float:
        """Simulated I/O time plus measured CPU time."""
        return self.io_time_ms + self.cpu_time_ms


class SetContainmentIndex(ABC):
    """Abstract base class for indexes answering containment queries.

    Subclasses implement the three ``_probe_*`` primitives, returning record
    ids of the *source dataset* (never internal ids) as a sorted list; an
    access method with a cheaper streaming path may additionally override
    :meth:`probe` to yield ids lazily (the OIF streams single-item subset
    probes block by block, which is what makes ``limit`` stop early).
    """

    #: Human-readable name used in experiment reports ("IF", "OIF", ...).
    name: str = "index"

    def __init__(self, dataset: Dataset, env: Environment) -> None:
        self.dataset = dataset
        self.env = env
        self._planner: "Planner | None" = None

    # -- probe primitives (implemented by each access method) ------------------------

    @abstractmethod
    def _probe_subset(self, items: frozenset, ctx: "ReadContext | None" = None) -> list[int]:
        """Records ``t`` with ``items ⊆ t.s``; page reads charged to ``ctx``."""

    @abstractmethod
    def _probe_equality(self, items: frozenset, ctx: "ReadContext | None" = None) -> list[int]:
        """Records ``t`` with ``items = t.s``; page reads charged to ``ctx``."""

    @abstractmethod
    def _probe_superset(self, items: frozenset, ctx: "ReadContext | None" = None) -> list[int]:
        """Records ``t`` with ``t.s ⊆ items``; page reads charged to ``ctx``."""

    def probe(self, leaf: Leaf, ctx: "ReadContext | None" = None) -> Iterator[int]:
        """Stream the record ids answering one predicate leaf.

        ``ctx`` is the read context of the traversal this probe belongs to
        (the owning cursor's); every page access the probe causes is charged
        to it in addition to the pool-wide totals.
        """
        if isinstance(leaf, Subset):
            return iter(self._probe_subset(leaf.items, ctx))
        if isinstance(leaf, Equality):
            return iter(self._probe_equality(leaf.items, ctx))
        if isinstance(leaf, Superset):
            return iter(self._probe_superset(leaf.items, ctx))
        raise QueryError(f"cannot probe non-leaf expression {leaf!r}")

    # -- the expression API ----------------------------------------------------------

    @property
    def planner(self) -> Planner:
        """The selectivity-aware planner over this index's dataset statistics.

        Indexes with an adaptive posting-representation config (``posting_repr``
        / ``dense_ratio``) pass it through so plans annotate each item with the
        representation its list decodes under.
        """
        if self._planner is None:
            from repro.core.postings import DEFAULT_DENSE_RATIO

            self._planner = Planner(
                self.dataset,
                dense_ratio=getattr(self, "dense_ratio", DEFAULT_DENSE_RATIO),
                hybrid=getattr(self, "posting_repr", "auto") != "array",
            )
        return self._planner

    def execute(
        self,
        expr: Expr,
        planner: "Planner | None" = None,
        ctx: "ReadContext | None" = None,
    ) -> Cursor:
        """Plan ``expr`` and return a streaming cursor over its record ids.

        The cursor yields ids lazily in plan order; pass a custom ``planner``
        to override the default rarest-conjunct-first strategy.  ``ctx``
        seeds the cursor's read context (a fresh one is created when
        omitted), so callers can pre-own the accounting of a traversal.
        """
        if not isinstance(expr, Expr):
            raise QueryError(f"execute() needs a query expression, got {expr!r}")
        normalized = expr.normalize()
        with trace.span("plan"):
            plan = (planner or self.planner).plan(normalized)
        return Cursor(self, plan, normalized, ctx=ctx)

    def evaluate(self, expr: Expr) -> list[int]:
        """Answer ``expr`` fully materialized, as an ascending id list."""
        return sorted(self.execute(expr))

    def explain(self, expr: Expr, planner: "Planner | None" = None) -> str:
        """Render the physical plan for ``expr`` without executing it.

        Unlike ``execute(expr).explain()``, no cursor is opened, so the
        buffer pool stays untouched; composite access methods (sharding)
        override this to render their fan-out structure.
        """
        return (planner or self.planner).plan(expr.normalize()).explain()

    def measured_execute(
        self, expr: Expr, planner: "Planner | None" = None
    ) -> QueryResult:
        """Run an expression and package the answer together with its cost.

        The cost is read from the cursor's own read context, so it is exact
        for this query even when other queries interleave on the same
        storage environment.  The buffer pool is *not* dropped here; the
        experiment runner decides the caching regime (the paper keeps a
        minimal cache across queries).
        """
        cursor = self.execute(expr, planner=planner)
        start = time.perf_counter()
        with trace.span("fetch", index=self.name):
            record_ids = tuple(sorted(cursor.fetch_all()))
        cpu_seconds = time.perf_counter() - start
        delta = cursor.io_delta()
        normalized = cursor.expr
        leaf = normalized if isinstance(normalized, Leaf) else None
        return QueryResult(
            query_type=QueryType(leaf.op) if leaf else None,
            query_items=normalized.referenced_items(),
            record_ids=record_ids,
            page_accesses=delta.page_reads,
            random_reads=delta.random_reads,
            sequential_reads=delta.sequential_reads,
            io_time_ms=delta.io_time_ms(self.stats.disk_model),
            cpu_time_ms=cpu_seconds * 1000.0,
            expr=normalized,
            decoded_hits=delta.decoded_hits,
            decoded_misses=delta.decoded_misses,
        )

    # -- instrumentation -----------------------------------------------------------

    @property
    def stats(self) -> IOStatistics:
        """The I/O counters shared with the index's storage environment."""
        return self.env.stats

    def io_snapshot(self) -> IOSnapshot:
        """Aggregate I/O counters over *every* storage environment this index reads.

        This is the *pool-wide totals* contract: deltas between two calls
        cover all pages touched in between, by anyone.  Single-environment
        indexes (the default) return their environment's counters; composite
        access methods such as :class:`~repro.core.shard.ShardedIndex`
        override it to sum the per-shard snapshots
        (:meth:`IOSnapshot.__add__`).  Per-*query* accounting does not go
        through here any more — each cursor carries a
        :class:`~repro.storage.stats.ReadContext` charged with exactly its
        own traversal (sharded cursors one per shard), and the contexts sum
        to these totals; snapshot diffs are only exact while nothing else
        runs, which single-threaded experiment phases still rely on.
        """
        return self.stats.snapshot()

    @property
    def index_size_bytes(self) -> int:
        """On-disk footprint of the index structures (allocated pages)."""
        return self.env.size_bytes

    def drop_cache(self) -> None:
        """Empty the buffer pool so the next query starts cold."""
        self.env.drop_cache()
