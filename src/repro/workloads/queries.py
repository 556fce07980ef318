"""Query workload generation.

The paper evaluates with queries "that always have an answer", built from
existing set-values selected uniformly from the database (Section 5,
"Queries").  This module reproduces that methodology for all three
predicates:

* **subset** — sample a record with at least ``size`` items and use ``size``
  of its items as the query set (the record itself is then an answer);
* **equality** — sample a record with exactly ``size`` items and use its whole
  set-value (records with that cardinality exist for every generated size or
  the nearest available size is used);
* **superset** — sample a record with at most ``size`` items and pad its
  set-value with random extra items up to ``size`` (the record remains an
  answer because its items are all inside the query set).

A workload :class:`Query` wraps a full query *expression*
(:mod:`repro.core.query.expr`), so workloads are not limited to the three
point predicates: :meth:`WorkloadGenerator.composite_query` draws boolean
combinations (again guaranteed non-empty by construction), which is what the
serving benchmarks use for richer traffic mixes.

Workloads are reproducible (seeded) and keep, for every query, the record it
was derived from — useful when asserting non-empty answers in tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.core.interfaces import QueryType
from repro.core.items import Item
from repro.core.query.expr import And, Equality, Expr, Leaf, Not, Subset, Superset
from repro.core.records import Dataset, Record
from repro.errors import WorkloadError


@dataclass(frozen=True)
class Query:
    """One query of a workload: an expression plus its provenance."""

    expr: Expr
    source_record_id: int = -1

    @property
    def query_type(self) -> "QueryType | None":
        """The predicate for single-leaf queries, ``None`` for composite ones."""
        return QueryType(self.expr.op) if isinstance(self.expr, Leaf) else None

    @property
    def items(self) -> frozenset:
        """All items the expression references (the leaf's set for point queries)."""
        return self.expr.referenced_items()

    @property
    def size(self) -> int:
        """Number of distinct referenced items (the paper's ``|qs|``)."""
        return len(self.items)

    @classmethod
    def point(
        cls, query_type: "QueryType | str", items: Iterable[Item], source_record_id: int = -1
    ) -> "Query":
        """A single-predicate query, mirroring the pre-expression constructor."""
        return cls(QueryType.parse(query_type).leaf(items), source_record_id)


@dataclass
class Workload:
    """A reproducible collection of queries grouped by query size.

    ``query_type`` is ``None`` for workloads of composite expressions.
    """

    query_type: "QueryType | None"
    queries: list[Query] = field(default_factory=list)

    def __iter__(self) -> Iterator[Query]:
        return iter(self.queries)

    def __len__(self) -> int:
        return len(self.queries)

    def by_size(self) -> dict[int, list[Query]]:
        """Group the queries by ``|qs|``."""
        grouped: dict[int, list[Query]] = {}
        for query in self.queries:
            grouped.setdefault(query.size, []).append(query)
        return grouped


class WorkloadGenerator:
    """Draws containment queries from an existing dataset."""

    def __init__(self, dataset: Dataset, seed: int = 17) -> None:
        self.dataset = dataset
        self._rng = random.Random(seed)
        self._records: list[Record] = list(dataset)
        self._by_length: dict[int, list[Record]] = {}
        for record in self._records:
            self._by_length.setdefault(record.length, []).append(record)
        self._vocabulary_items: list[Item] = sorted(
            dataset.vocabulary, key=lambda item: str(item)
        )

    # -- single-query primitives ---------------------------------------------------

    def subset_query(self, size: int) -> Query:
        """A subset query of ``size`` items drawn from one record's set-value."""
        candidates = [record for record in self._records if record.length >= size]
        if not candidates:
            raise WorkloadError(f"no record has {size} or more items")
        record = self._rng.choice(candidates)
        items = frozenset(self._rng.sample(sorted(record.items, key=str), size))
        return Query(Subset(items), record.record_id)

    def equality_query(self, size: int) -> Query:
        """An equality query equal to some record of cardinality ``size`` (or nearest)."""
        available = sorted(self._by_length)
        if not available:
            raise WorkloadError("the dataset has no records")
        if size not in self._by_length:
            size = min(available, key=lambda length: (abs(length - size), length))
        record = self._rng.choice(self._by_length[size])
        return Query(Equality(frozenset(record.items)), record.record_id)

    def superset_query(self, size: int) -> Query:
        """A superset query of ``size`` items that fully covers one record."""
        candidates = [record for record in self._records if record.length <= size]
        if not candidates:
            raise WorkloadError(f"no record has {size} or fewer items")
        record = self._rng.choice(candidates)
        items = set(record.items)
        extras = [item for item in self._vocabulary_items if item not in items]
        self._rng.shuffle(extras)
        for item in extras:
            if len(items) >= size:
                break
            items.add(item)
        return Query(Superset(frozenset(items)), record.record_id)

    def composite_query(self, size: int) -> Query:
        """A boolean combination that still has a guaranteed answer.

        Built as ``Subset(q) ∧ ¬Superset({x})`` from a sampled record with at
        least two items: the record contains the ``size`` sampled items (the
        subset conjunct holds) and has an item outside ``{x}`` (so it is not
        contained in ``{x}`` and the negated superset conjunct holds too).
        """
        candidates = [record for record in self._records if record.length >= max(size, 2)]
        if not candidates:
            raise WorkloadError(f"no record has {max(size, 2)} or more items")
        record = self._rng.choice(candidates)
        in_order = sorted(record.items, key=str)
        items = frozenset(self._rng.sample(in_order, size))
        excluded = self._rng.choice(in_order)
        return Query(
            And((Subset(items), Not(Superset(frozenset({excluded}))))),
            record.record_id,
        )

    def query(self, query_type: QueryType | str, size: int) -> Query:
        """Generate one query of the requested type and size."""
        query_type = QueryType.parse(query_type)
        if query_type is QueryType.SUBSET:
            return self.subset_query(size)
        if query_type is QueryType.EQUALITY:
            return self.equality_query(size)
        return self.superset_query(size)

    # -- workloads -----------------------------------------------------------------

    def workload(
        self,
        query_type: QueryType | str,
        sizes: Sequence[int],
        queries_per_size: int = 10,
    ) -> Workload:
        """A workload with ``queries_per_size`` queries for every size in ``sizes``.

        The paper uses 10 queries of each size and type; that is the default.
        """
        query_type = QueryType.parse(query_type)
        _check_grid(sizes, queries_per_size)
        workload = Workload(query_type=query_type)
        for size in sizes:
            for _ in range(queries_per_size):
                workload.queries.append(self.query(query_type, size))
        return workload

    def mixed_workload(
        self, sizes: Sequence[int], queries_per_size: int = 10
    ) -> dict[QueryType, Workload]:
        """One workload per predicate, sharing the same size grid."""
        return {
            query_type: self.workload(query_type, sizes, queries_per_size)
            for query_type in QueryType
        }


def _check_grid(sizes: Sequence[int], queries_per_size: int) -> None:
    if queries_per_size <= 0:
        raise WorkloadError("queries_per_size must be positive")
    for size in sizes:
        if size <= 0:
            raise WorkloadError(f"query sizes must be positive, got {size}")


def answer_counts(queries: Iterable[Query], index) -> list[int]:
    """Evaluate ``queries`` on ``index`` and return the answer cardinalities.

    A convenience used by tests and by the selectivity analysis of the
    ordering ablation.
    """
    return [len(index.evaluate(query.expr)) for query in queries]
