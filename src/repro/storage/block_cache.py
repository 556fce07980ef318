"""Byte-budgeted LRU cache of *decoded* pages: posting blocks and B-tree nodes.

Profiling the query hot path shows the dominant cost is not the simulated
I/O but decoding: the v-byte decode of every posting block a query touches,
and the parse of every B-tree node it descends through — pure CPU costs that
repeat on every traversal of the same page.  The :class:`DecodedBlockCache`
sits **above** the buffer pool and keeps the decoded form of recently
decoded pages, in one LRU under one byte budget:

* **posting blocks**, keyed by their physical location ``(page_id, offset)``,
  in columnar form (:class:`~repro.compression.postings.PostingColumns`) or,
  for dense-tagged items, as a packed bitmap
  (:class:`~repro.core.postings.DensePostings`);
* **B-tree nodes** of the owning index's block table, keyed by the bare
  ``page_id`` (an ``int`` never equals a ``(page_id, offset)`` tuple, so the
  two kinds share one map without colliding).  A cold superset query
  re-descends from the root for every item run, so most of its node visits
  repeat a page it already decoded.

Entries are charged their true footprint via the entry's ``nbytes``
(parallel columns / packed words / key and value lists, container overhead
included), so the byte budget is honest across kinds and representations.

Accounting contract
-------------------
The cache removes decode CPU, never simulated I/O: a hit still charges the
page access to the traversal's :class:`~repro.storage.stats.ReadContext`
exactly as a miss would, so page counts — the paper's primary metric — and
the random/sequential split are identical with and without the cache, cold
or warm.  Every *block* lookup is recorded as a ``decoded_hit`` or
``decoded_miss`` in the context *and* in the owning pool's
:class:`~repro.storage.stats.IOStatistics` totals, under this cache's lock,
so the per-context decoded counters sum exactly to the totals under any
interleaving (the same invariant the read counters satisfy).  Node lookups
are counted only here (``node_hits`` / ``node_misses``), so every
``IOSnapshot`` reads the same whether nodes are cached or not.

Invalidation
------------
Entries are only valid for the physical layout they were decoded from: the
owning index invalidates the whole cache on every rebuild (``build`` /
flush-merge / rebuild-swap all construct fresh pages) and on ``drop_cache``
(experiment runs expect a truly cold start, CPU included).  A B-tree write
rewrites one page in place, so it drops just that page's node through
:meth:`~DecodedBlockCache.discard`; cached nodes themselves are never
mutated.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Hashable

from repro.errors import BufferPoolError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.stats import IOStatistics, ReadContext

#: Default byte budget: generous for laptop-scale experiments, small next to
#: any real dataset.  Entries are charged their full decoded footprint.
DEFAULT_DECODED_CACHE_BYTES = 8 << 20


class DecodedBlockCache:
    """Thread-safe LRU over decoded blocks and nodes with a byte budget.

    Parameters
    ----------
    budget_bytes:
        Maximum total payload bytes kept; least recently used entries are
        evicted once an insert exceeds it.  An entry larger than the whole
        budget is simply not cached.
    stats:
        The owning environment's :class:`IOStatistics`; every block lookup
        is mirrored into its ``decoded_hits`` / ``decoded_misses`` totals.
    """

    def __init__(self, budget_bytes: int, stats: "IOStatistics | None" = None) -> None:
        if budget_bytes <= 0:
            raise BufferPoolError(
                f"decoded-block cache budget must be positive, got {budget_bytes}"
            )
        self.budget_bytes = budget_bytes
        self._stats = stats
        self._entries: "OrderedDict[Hashable, tuple[Any, int]]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.node_hits = 0
        self.node_misses = 0
        self.evictions = 0
        self.invalidations = 0

    def get(self, key: Hashable, ctx: "ReadContext | None" = None) -> Any:
        """Look up one decoded block; records the hit/miss to ``ctx`` and totals."""
        with self._lock:
            entry = self._entries.get(key)
            hit = entry is not None
            if hit:
                self._entries.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
            if self._stats is not None:
                self._stats.record_decoded(hit, ctx)
            elif ctx is not None:
                ctx.record_decoded(hit)
            return entry[0] if hit else None

    def get_node(self, page_id: int) -> Any:
        """Look up one decoded B-tree node; counted in ``node_hits``/``node_misses``."""
        with self._lock:
            entry = self._entries.get(page_id)
            if entry is None:
                self.node_misses += 1
                return None
            self._entries.move_to_end(page_id)
            self.node_hits += 1
            return entry[0]

    def put(self, key: Hashable, decoded: Any) -> None:
        """Insert a freshly decoded block or node, evicting LRU entries over budget.

        Not counted as a lookup: the miss that preceded this insert already
        was, so ``hits + misses`` equals the number of :meth:`get` calls.
        """
        size = decoded.nbytes
        if size > self.budget_bytes:
            return
        with self._lock:
            self._pop(key)
            self._entries[key] = (decoded, size)
            self._bytes += size
            while self._bytes > self.budget_bytes:
                _, (_, evicted_size) = self._entries.popitem(last=False)
                self._bytes -= evicted_size
                self.evictions += 1

    def discard(self, key: Hashable) -> None:
        """Drop one entry if present (a B-tree write rewrote its page)."""
        with self._lock:
            self._pop(key)

    def _pop(self, key: Hashable) -> None:
        """Remove ``key`` and its bytes; the caller holds the lock."""
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old[1]

    def invalidate(self) -> None:
        """Drop every entry (rebuild, flush-merge, swap, or cache drop)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self.invalidations += 1

    @property
    def resident_blocks(self) -> int:
        """Number of decoded posting blocks currently cached."""
        with self._lock:
            return sum(1 for key in self._entries if isinstance(key, tuple))

    @property
    def resident_bytes(self) -> int:
        """Total payload bytes currently cached."""
        with self._lock:
            return self._bytes

    def counters(self) -> dict:
        """JSON-friendly counter snapshot (``/stats``, tests, debugging)."""
        with self._lock:
            nodes = sum(1 for key in self._entries if isinstance(key, int))
            return {
                "hits": self.hits,
                "misses": self.misses,
                "node_hits": self.node_hits,
                "node_misses": self.node_misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "resident_blocks": len(self._entries) - nodes,
                "resident_nodes": nodes,
                "resident_bytes": self._bytes,
                "budget_bytes": self.budget_bytes,
            }
