"""Serialize and restore an OIF's state without rebuilding it.

A built :class:`~repro.core.oif.OrderedInvertedFile` splits its state across
two worlds:

* the **pages** of its storage environment — B-tree nodes, block data pages
  and (for catalog-enabled environments) the page-0 table catalog.  Those are
  persisted *verbatim* by :func:`copy_environment`, which is what keeps page
  ids — and therefore the paper's page-access accounting — identical between
  a live index and its reopened copy;
* the **Python-side** ordering state — the ``<_D`` item order, the sequence
  forms, the internal↔original id maps and the build-report counters.  Those
  are captured as JSON by :func:`dump_state` and rebuilt by :func:`load_oif`,
  which also reconstitutes the source :class:`~repro.core.records.Dataset`
  from the sequence forms (every record's set-value is exactly the items of
  its form) — so reopening needs no access to the original dataset at all.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.core.items import ItemOrder
from repro.core.oif import OIFBuildReport, OrderedInvertedFile
from repro.core.ordering import OrderedDataset, _build_metadata
from repro.core.postings import REPR_BITMAP
from repro.core.records import Dataset, Record
from repro.errors import DurabilityError
from repro.storage.kvstore import Environment
from repro.storage.pager import FilePageFile

#: JSON-representable item types that survive a dump/load round trip intact.
_PERSISTABLE_ITEM_TYPES = (str, int, float, bool)


class _LazyFormsDataset(Dataset):
    """A :class:`Dataset` reconstructed from sequence forms on first use.

    Reopening an index only needs the record *set-values* when an update or a
    dataset-level statistic asks for them; the common reopen-and-query path
    never does (queries answer from the pages and the sequence-form metadata).
    Deferring the O(records) ``Record`` reconstruction keeps ``open_index``
    an order of magnitude cheaper than a rebuild.  The id-level accessors the
    open path does touch (``len``, ``record_ids``, ``has_id``) are answered
    from the persisted id list without materializing.
    """

    def __init__(self, order: ItemOrder, forms: list[tuple], record_ids: list[int]) -> None:
        self._order = order
        self._forms = forms
        self._ids = list(record_ids)
        self._id_set = set(record_ids)

    def _materialize(self) -> None:
        items = self._order.items_in_order()
        records = [
            Record(record_id, frozenset(map(items.__getitem__, form)))
            for form, record_id in zip(self._forms, self._ids)
        ]
        records.sort(key=lambda record: record.record_id)
        Dataset.__init__(self, records)

    def __getattr__(self, name: str):
        # Only the three attributes Dataset.__init__ would have set can be
        # legitimately missing; anything else (copy/pickle dunders probing the
        # instance) must fail fast instead of triggering materialization.
        if name in ("_records", "_by_id", "_vocabulary"):
            self._materialize()
            return object.__getattribute__(self, name)
        raise AttributeError(name)

    def __len__(self) -> int:
        if "_records" not in self.__dict__:
            return len(self._ids)
        return super().__len__()

    @property
    def record_ids(self) -> list[int]:
        if "_records" not in self.__dict__:
            return sorted(self._ids)
        return Dataset.record_ids.fget(self)

    def has_id(self, record_id: int) -> bool:
        if "_records" not in self.__dict__:
            return record_id in self._id_set
        return super().has_id(record_id)


def dump_state(index: OrderedInvertedFile, options: dict) -> dict:
    """Capture the Python-side state of a built OIF as a JSON-ready dict."""
    ordered = index.ordered
    items = list(ordered.order.items_in_order())
    for item in items:
        if not isinstance(item, _PERSISTABLE_ITEM_TYPES):
            raise DurabilityError(
                f"item {item!r} of type {type(item).__name__} cannot be "
                "persisted; durable indexes need JSON-representable items"
            )
    if index.build_report is None:
        raise DurabilityError("cannot persist an OIF that has not been built")
    return {
        "table": index._table.name,
        "options": options,
        "items": items,
        "supports": [ordered.order.support(item) for item in items],
        "sequence_forms": [list(form) for form in ordered.sequence_forms],
        "lengths": list(ordered.lengths),
        "new_to_old": list(ordered.new_to_old),
        "build_report": asdict(index.build_report),
        # The adaptive posting-representation tags chosen at build time, so a
        # reopened index decodes each list in the right shape without
        # re-inspecting frequencies.  Format version 2.
        "posting_reprs": {
            "mode": index.posting_repr,
            "dense_ratio": index.dense_ratio,
            "dense_ranks": sorted(
                rank
                for rank, tag in index._list_repr.items()
                if tag == REPR_BITMAP
            ),
        },
    }


def load_oif(env: Environment, state: dict) -> OrderedInvertedFile:
    """Reconstruct a queryable OIF over an already-loaded environment.

    The source dataset is rebuilt from the persisted sequence forms (a
    record's set-value is exactly the items its form names), so the original
    dataset — or its generator configuration — is not needed.
    """
    items = state["items"]
    order = ItemOrder(items, supports=dict(zip(items, state["supports"])))
    forms = [tuple(form) for form in state["sequence_forms"]]
    new_to_old = list(state["new_to_old"])
    old_to_new = {old: position + 1 for position, old in enumerate(new_to_old)}
    dataset = _LazyFormsDataset(order, forms, new_to_old)
    ordered = OrderedDataset(
        order=order,
        sequence_forms=forms,
        lengths=list(state["lengths"]),
        new_to_old=new_to_old,
        old_to_new=old_to_new,
        metadata=_build_metadata(forms),
        source=dataset,
    )
    index = OrderedInvertedFile(dataset, env=env, build=False, **state["options"])
    index._ordered = ordered
    index.attach_table(env.table(state["table"]))
    index.build_report = OIFBuildReport(**state["build_report"])
    reprs = state.get("posting_reprs")
    if reprs is not None:
        index.posting_repr = reprs.get("mode", index.posting_repr)
        index.dense_ratio = reprs.get("dense_ratio", index.dense_ratio)
        index._list_repr = {int(rank): REPR_BITMAP for rank in reprs["dense_ranks"]}
    return index


def copy_environment(env: Environment, dest_path: str) -> int:
    """Snapshot an environment's pages verbatim into ``dest_path`` (fsynced).

    Dirty pages are flushed to the source page file first, then every page is
    copied byte-for-byte — page ids in the copy are identical to the live
    environment's, which is what the block pointers stored inside B-tree
    values require.  Returns the number of pages written.
    """
    env.pool.flush()
    source = env.page_file
    dest = FilePageFile(dest_path, source.page_size)
    try:
        for page_id in range(source.num_pages):
            dest.allocate()
            dest.write(page_id, bytes(source.read(page_id)))
        dest.sync()
    finally:
        dest.close()
    return source.num_pages


def load_environment(path: str, page_size: int, cache_bytes: int) -> Environment:
    """Load a persisted page image into a memory-resident, catalog-aware env.

    The pages are copied into a fresh in-memory environment (ids preserved)
    and the catalog page is decoded to reconstruct the tables — making the
    index resident without keeping a file handle on the snapshot, so a later
    checkpoint can retire the file freely.
    """
    source = FilePageFile(path, page_size)
    try:
        env = Environment(page_size=page_size, cache_bytes=cache_bytes)
        for page_id in range(source.num_pages):
            env.page_file.allocate()
            env.page_file.write(page_id, bytes(source.read(page_id)))
    finally:
        source.close()
    env.load_catalog()
    return env
