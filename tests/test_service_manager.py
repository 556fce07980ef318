"""Tests for the resident-index manager: lifecycle, locks, rebuild/swap."""

from __future__ import annotations

import threading

import pytest

from repro.core import Dataset
from repro.core.query.expr import leaf_for
from repro.errors import ServiceError
from repro.service import IndexManager, ResultCache
from repro.service.index_manager import INDEX_KINDS


@pytest.fixture()
def dataset(paper_dataset: Dataset) -> Dataset:
    """The paper's Figure 1 relation (ids 101..118), shared session-wide."""
    return paper_dataset


@pytest.fixture()
def manager() -> IndexManager:
    return IndexManager(result_cache=ResultCache(capacity=64))


def test_create_get_drop_lifecycle(manager, dataset):
    entry = manager.create("paper", dataset, kind="oif")
    assert "paper" in manager
    assert manager.names() == ["paper"]
    assert manager.get("paper") is entry
    assert len(manager) == 1
    manager.drop("paper")
    assert "paper" not in manager
    with pytest.raises(ServiceError, match="no index named"):
        manager.get("paper")
    with pytest.raises(ServiceError, match="no index named"):
        manager.drop("paper")


def test_duplicate_names_are_rejected(manager, dataset):
    manager.create("paper", dataset)
    with pytest.raises(ServiceError, match="already exists"):
        manager.create("paper", dataset)


def test_unknown_kind_is_rejected_and_name_released(manager, dataset):
    with pytest.raises(ServiceError, match="unknown index kind"):
        manager.create("paper", dataset, kind="btree-of-doom")
    # A failed build must not leak its name reservation.
    manager.create("paper", dataset)


@pytest.mark.parametrize("kind", INDEX_KINDS)
def test_every_kind_answers_like_the_oracle(manager, dataset, kind, paper_oracle):
    entry = manager.create(f"idx-{kind}", dataset, kind=kind)
    for query_type in ("subset", "equality", "superset"):
        query = {"a", "b"}
        leaf = leaf_for(query_type, query)
        assert entry.evaluate(leaf) == paper_oracle.evaluate(leaf)


def test_describe_reports_records_and_kind(manager, dataset):
    manager.create("paper", dataset, kind="if")
    (description,) = manager.describe()
    assert description["name"] == "paper"
    assert description["kind"] == "if"
    assert description["records"] == len(dataset)
    assert description["supports_updates"] is True
    assert description["size_bytes"] > 0


def test_insert_is_immediately_queryable_and_flush_merges(manager, dataset):
    entry = manager.create("paper", dataset, kind="oif")
    (new_id,) = manager.insert("paper", [{"a", "b", "zz"}])
    assert new_id == max(dataset.record_ids) + 1
    assert entry.pending_updates == 1
    assert new_id in entry.evaluate(leaf_for("subset", {"zz"}))
    report = manager.flush("paper")
    assert report.records_merged == 1
    assert entry.pending_updates == 0
    assert new_id in entry.evaluate(leaf_for("subset", {"zz"}))


def test_insert_batch_with_empty_transaction_changes_nothing(manager, dataset):
    """A bad batch must not be partially applied (or partially announced)."""
    entry = manager.create("paper", dataset, kind="oif")
    seen: list[list[frozenset]] = []
    entry.add_update_listener(seen.append)
    from repro.errors import QueryError

    with pytest.raises(QueryError, match="empty transaction"):
        manager.insert("paper", [{"a", "b", "zz"}, set()])
    assert entry.pending_updates == 0
    assert entry.evaluate(leaf_for("subset", {"zz"})) == []
    assert seen == []


def test_cache_wired_after_create_still_invalidates(dataset):
    """Listeners resolve the manager's cache at fire time, not at create."""
    manager = IndexManager()                 # no cache yet
    entry = manager.create("paper", dataset, kind="oif")
    cache = ResultCache(capacity=16)
    manager.result_cache = cache             # wired late (e.g. by ServiceServer)
    from repro.service.cache import make_key

    key = make_key("paper", "subset", {"a", "b"})
    cache.put(key, tuple(entry.evaluate(leaf_for("subset", {"a", "b"}))))
    manager.insert("paper", [{"a", "b", "late"}])
    assert cache.get(key) is None


def test_insert_into_static_kind_is_rejected(manager, dataset):
    manager.create("sig", dataset, kind="sig")
    with pytest.raises(ServiceError, match="does not support updates"):
        manager.insert("sig", [{"a"}])
    assert manager.flush("sig") is None


def test_insert_invalidates_affected_cache_entries_only(manager, dataset):
    cache = manager.result_cache
    entry = manager.create("paper", dataset, kind="oif")
    from repro.service.cache import make_key

    affected = make_key("paper", "subset", {"a", "b"})
    unaffected = make_key("paper", "subset", {"a", "zz"})
    cache.put(affected, tuple(entry.evaluate(leaf_for("subset", {"a", "b"}))))
    cache.put(unaffected, tuple(entry.evaluate(leaf_for("subset", {"a", "zz"}))))

    manager.insert("paper", [{"a", "b", "c"}])

    assert cache.get(affected) is None, "stale subset entry must be dropped"
    assert cache.get(unaffected) is not None, "unrelated entry must survive"


def test_drop_invalidates_all_cache_entries_of_the_index(manager, dataset):
    cache = manager.result_cache
    manager.create("paper", dataset)
    from repro.service.cache import make_key

    cache.put(make_key("paper", "subset", {"a"}), (101,))
    cache.put(make_key("other", "subset", {"a"}), (1,))
    manager.drop("paper")
    assert cache.get(make_key("paper", "subset", {"a"})) is None
    assert cache.get(make_key("other", "subset", {"a"})) == (1,)


def test_insert_and_flush_on_a_dropped_entry_fail_loudly(manager, dataset):
    """A write racing a drop must not be acknowledged into a dead handle."""
    from repro.errors import UnknownIndexError

    entry = manager.create("paper", dataset, kind="oif")
    manager.drop("paper")
    with pytest.raises(UnknownIndexError):
        entry.insert([{"a", "lost"}])
    with pytest.raises(UnknownIndexError):
        entry.flush()


def test_drop_leaves_an_inflight_create_reservation_alone(manager, dataset):
    """Dropping a name that is only reserved (create still building) must not
    release the reservation, or two concurrent creates could both register."""
    manager._indexes["building"] = None  # what create() holds while it builds
    with pytest.raises(ServiceError, match="no index named"):
        manager.drop("building")
    with pytest.raises(ServiceError, match="already exists"):
        manager.create("building", dataset)


def test_describe_skips_inflight_create_reservations(manager, dataset):
    manager.create("live", dataset)
    manager._indexes["building"] = None
    described = manager.describe()
    assert [d["name"] for d in described] == ["live"]


def test_rebuild_preserves_answers_and_merges_delta(manager, dataset):
    entry = manager.create("paper", dataset, kind="oif")
    manager.insert("paper", [{"a", "b", "zz"}])
    before = entry.evaluate(leaf_for("subset", {"a", "b"}))
    rebuilt = manager.rebuild("paper")
    assert rebuilt is entry
    assert entry.pending_updates == 0, "rebuild folds the delta into the base index"
    assert entry.evaluate(leaf_for("subset", {"a", "b"})) == before
    assert entry.evaluate(leaf_for("subset", {"zz"}))


def test_rebuild_keeps_update_listeners_wired(manager, dataset):
    entry = manager.create("paper", dataset, kind="oif")
    seen: list[list[frozenset]] = []
    entry.add_update_listener(seen.append)
    manager.rebuild("paper")
    manager.insert("paper", [{"q", "r"}])
    assert seen == [[frozenset({"q", "r"})]]


def test_rebuild_never_reissues_a_deleted_id(manager, dataset):
    """The newest record deleted before a rebuild leaves its id retired."""
    entry = manager.create("paper", dataset, kind="oif")
    (newest,) = manager.insert("paper", [{"a", "doomed"}])
    entry.delete([newest])
    manager.rebuild("paper")
    (after,) = manager.insert("paper", [{"a", "later"}])
    assert after > newest


@pytest.mark.parametrize(
    ("kind", "options", "durable"),
    [
        ("oif", {}, False),
        ("oif", {}, True),
        ("if", {}, False),
        ("oif", {"shards": 3}, False),
        ("oif", {"shards": 3}, True),
    ],
    ids=["oif", "oif-durable", "if", "sharded-oif", "sharded-oif-durable"],
)
def test_rebuild_matches_a_fresh_build_page_for_page(
    tmp_path, skewed_dataset, kind, options, durable
):
    """A rebuilt entry reads exactly the pages a fresh build over its records does."""
    from repro.service.index_manager import ManagedIndex

    manager = IndexManager(data_dir=str(tmp_path) if durable else None, fsync="never")
    entry = manager.create("re", skewed_dataset, kind=kind, **options)
    entry.insert([{"a", "b", "zz"}, {"c", "yy"}, {"a", "c", "d"}])
    entry.delete([list(skewed_dataset)[3].record_id, list(skewed_dataset)[40].record_id])
    manager.rebuild("re")
    fresh = ManagedIndex(
        "fresh",
        kind,
        entry._handle.live_dataset(),
        catalog_envs=entry.catalog_envs,
        **options,
    )
    pages_read = 0
    for query_type in ("subset", "equality", "superset"):
        for items in ({"a"}, {"a", "b"}, {"c", "d", "e"}, {"a", "b", "zz"}, {"c", "yy"}):
            expr = leaf_for(query_type, items)
            entry.index.drop_cache()
            fresh.index.drop_cache()
            ids, io, _ = entry.measured_expr(expr)
            fresh_ids, fresh_io, _ = fresh.measured_expr(expr)
            assert ids == fresh_ids, expr
            pages_read += io.page_reads
            assert (io.page_reads, io.random_reads, io.sequential_reads) == (
                fresh_io.page_reads,
                fresh_io.random_reads,
                fresh_io.sequential_reads,
            ), expr
    assert pages_read > 15, "every query runs cold, so most must read pages"
    manager.close(checkpoint=False)


def test_queries_and_inserts_from_many_threads_stay_consistent(manager, dataset, paper_oracle):
    entry = manager.create("paper", dataset, kind="oif")
    expected = {
        query_type: paper_oracle.evaluate(leaf_for(query_type, {"a", "b"}))
        for query_type in ("subset", "equality", "superset")
    }
    errors: list[BaseException] = []

    def reader(query_type: str) -> None:
        try:
            for _ in range(30):
                result = entry.evaluate(leaf_for(query_type, {"a", "b"}))
                # Inserts only ever append ids beyond the original range, so
                # the original answers must always be a prefix-subset.
                assert set(expected[query_type]) <= set(result + expected[query_type])
        except BaseException as error:  # pragma: no cover - failure path
            errors.append(error)

    def writer() -> None:
        try:
            for n in range(10):
                manager.insert("paper", [{"a", "b", f"w{n}"}])
        except BaseException as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [threading.Thread(target=reader, args=(qt,))
               for qt in ("subset", "equality", "superset") for _ in range(2)]
    threads.append(threading.Thread(target=writer))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    # All 10 inserted records answer the final subset query.
    final = entry.evaluate(leaf_for("subset", {"a", "b"}))
    assert len(final) == len(expected["subset"]) + 10
