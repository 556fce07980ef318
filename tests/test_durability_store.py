"""Persist / reopen / replay / checkpoint semantics of the durability store."""

from __future__ import annotations

import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Dataset
from repro.core.query.expr import leaf_for
from repro.core.updates import UpdatableOIF, UpdatableShardedOIF
from repro.durability import (
    MANIFEST_NAME,
    DurableIndex,
    durable_env_factory,
    open_index,
    persist,
    read_manifest,
)
from repro.errors import DurabilityError, StorageError

from tests.conftest import PAPER_TRANSACTIONS, make_skewed_transactions

ITEMS = sorted({item for transaction in PAPER_TRANSACTIONS for item in transaction})


def build_durable(directory: str, *, shards: int = 1, **oif_kwargs) -> DurableIndex:
    dataset = Dataset.from_transactions(PAPER_TRANSACTIONS, start_id=101)
    factory = durable_env_factory(4096, 32 * 1024)
    if shards > 1:
        handle = UpdatableShardedOIF(dataset, shards, env_factory=factory, **oif_kwargs)
    else:
        handle = UpdatableOIF(dataset, env_factory=factory, **oif_kwargs)
    return persist(directory, handle, options=oif_kwargs, fsync="never")


def all_answers(handle) -> dict:
    return {
        (query_type, item): tuple(handle.evaluate(leaf_for(query_type, {item})))
        for query_type in ("subset", "equality", "superset")
        for item in ITEMS + ["new1", "new2"]
    }


@pytest.mark.parametrize("shards", [1, 3])
def test_roundtrip_without_source_dataset(tmp_path, shards):
    """open_index() answers queries from the directory alone."""
    directory = str(tmp_path / "idx")
    durable = build_durable(directory, shards=shards)
    durable.insert([{"new1", "a"}, {"new2", "c", "d"}])
    durable.delete([103, 110])
    expected = all_answers(durable)
    durable.close()

    # No checkpoint ran after the updates: everything past generation 0 must
    # come back from the WAL.  The original Dataset object is gone.
    reopened = open_index(directory)
    assert all_answers(reopened) == expected
    assert reopened.pending_updates > 0, "replayed updates live in the delta"
    reopened.close()


@pytest.mark.parametrize("shards", [1, 3])
def test_checkpoint_truncates_wal_and_survives_reopen(tmp_path, shards):
    directory = str(tmp_path / "idx")
    durable = build_durable(directory, shards=shards)
    durable.insert([{"new1", "b"}])
    durable.delete([101])
    expected = all_answers(durable)
    result = durable.checkpoint()
    assert result["generation"] == 1
    assert all(wal.recover().records == [] for wal in durable.store._wals)
    durable.close()

    reopened = open_index(directory)
    assert reopened.store.replayed_records == 0, "checkpointed state needs no replay"
    assert reopened.pending_updates == 0
    assert all_answers(reopened) == expected
    reopened.close()


def test_checkpoint_skips_when_clean(tmp_path):
    durable = build_durable(str(tmp_path / "idx"))
    assert durable.checkpoint().get("skipped") is True
    assert durable.checkpoint(force=True).get("skipped") is None
    durable.close()


def test_old_generation_files_are_swept(tmp_path):
    directory = str(tmp_path / "idx")
    durable = build_durable(directory)
    durable.insert([{"x", "a"}])
    durable.checkpoint()
    names = os.listdir(directory)
    assert "pages-1.db" in names and "state-1.json" in names
    assert "pages-0.db" not in names and "state-0.json" not in names
    durable.close()


def test_page_accounting_equal_live_vs_reopened_on_cold_pool(tmp_path):
    """The paper's page-access counts survive a save/load cycle exactly."""
    directory = str(tmp_path / "idx")
    dataset = Dataset.from_transactions(
        make_skewed_transactions(400), start_id=1
    )
    factory = durable_env_factory(4096, 32 * 1024)
    live = UpdatableOIF(dataset, env_factory=factory)
    durable = persist(directory, live, fsync="never")
    durable.close()
    reopened = open_index(directory)

    expr = leaf_for("subset", frozenset({"a", "b"}))
    live.index.env.drop_cache()
    reopened.index.env.drop_cache()
    live_ids, live_io = live.measured_evaluate(expr)
    reopened_ids, reopened_io = reopened.measured_evaluate(expr)
    assert reopened_ids == live_ids
    assert reopened_io.page_reads == live_io.page_reads
    assert reopened_io.random_reads == live_io.random_reads
    assert reopened_io.sequential_reads == live_io.sequential_reads
    reopened.close()


def test_manifest_version_mismatch_is_a_clear_error(tmp_path):
    directory = str(tmp_path / "idx")
    build_durable(directory).close()
    path = os.path.join(directory, MANIFEST_NAME)
    manifest = json.load(open(path))
    manifest["format_version"] = 99
    json.dump(manifest, open(path, "w"))
    with pytest.raises(StorageError, match="format version 99"):
        open_index(directory)


def test_manifest_wrong_format_name_rejected(tmp_path):
    directory = str(tmp_path / "idx")
    build_durable(directory).close()
    path = os.path.join(directory, MANIFEST_NAME)
    manifest = json.load(open(path))
    manifest["format"] = "some-other-store"
    json.dump(manifest, open(path, "w"))
    with pytest.raises(StorageError, match="format"):
        open_index(directory)


def test_missing_manifest_rejected(tmp_path):
    with pytest.raises(DurabilityError, match="manifest"):
        read_manifest(str(tmp_path))


def test_page_size_mismatch_rejected(tmp_path):
    """A page image written with one page size refuses to open with another."""
    directory = str(tmp_path / "idx")
    build_durable(directory).close()
    path = os.path.join(directory, MANIFEST_NAME)
    manifest = json.load(open(path))
    # Lie about the page size: the catalog page's own header catches it.
    manifest["page_size"] = 8192
    json.dump(manifest, open(path, "w"))
    with pytest.raises(StorageError, match="page size"):
        open_index(directory)


def test_persist_refuses_uncataloged_environments(tmp_path):
    dataset = Dataset.from_transactions(PAPER_TRANSACTIONS, start_id=101)
    handle = UpdatableOIF(dataset)  # default in-memory env, no catalog page
    with pytest.raises(DurabilityError, match="catalog"):
        persist(str(tmp_path / "idx"), handle)


def test_persist_refuses_an_existing_directory(tmp_path):
    directory = str(tmp_path / "idx")
    build_durable(directory).close()
    dataset = Dataset.from_transactions(PAPER_TRANSACTIONS, start_id=101)
    handle = UpdatableOIF(dataset, env_factory=durable_env_factory(4096, 32 * 1024))
    with pytest.raises(DurabilityError, match="already holds"):
        persist(directory, handle)


def test_delete_of_max_id_does_not_recycle_ids(tmp_path):
    """next_id persists, so a reopened index never reuses an acked id."""
    directory = str(tmp_path / "idx")
    durable = build_durable(directory)
    [new_id] = durable.insert([{"zz", "a"}])
    durable.delete([new_id])
    durable.checkpoint()
    durable.close()
    reopened = open_index(directory)
    [fresh_id] = reopened.insert([{"yy", "b"}])
    assert fresh_id > new_id, "the deleted max id must not come back"
    reopened.close()


# -- property: WAL replay == in-memory state for any insert/delete interleaving ------

operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.lists(
                st.sets(st.sampled_from(ITEMS), min_size=1, max_size=4),
                min_size=1,
                max_size=3,
            ),
        ),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=10_000)),
    ),
    max_size=12,
)


def state_of(handle) -> list:
    return sorted(
        (record.record_id, tuple(sorted(record.items)))
        for record in handle.live_dataset()
    )


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops=operations, shards=st.sampled_from([1, 2]))
def test_wal_replay_matches_in_memory_state(ops, shards):
    """Replaying the WAL reproduces exactly the pre-crash delta state."""
    with tempfile.TemporaryDirectory() as tmp:
        directory = os.path.join(tmp, "idx")
        durable = build_durable(directory, shards=shards)
        live: list[int] = sorted(durable.dataset.record_ids)
        for op, payload in ops:
            if op == "insert":
                live.extend(durable.insert([frozenset(s) for s in payload]))
            elif live:
                victim = live.pop(payload % len(live))
                durable.delete([victim])
        expected = state_of(durable)
        durable.close()  # no checkpoint: state must come back via the WAL
        reopened = open_index(directory)
        assert state_of(reopened) == expected
        assert reopened._next_id >= durable._next_id
        reopened.close()
