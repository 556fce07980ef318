"""Property suite for the adaptive posting-representation layer.

Hypothesis-driven guarantees over adversarial, skew-shaped id runs:

* **bitmap ↔ array round trip** — converting a sorted-id column to a
  :class:`DensePostings` bitmap and back is the identity (ids *and* the
  parallel lengths column), as is the procpool wire codec
  ``pack_sorted_ids`` / ``unpack_ids``;
* **kernel equivalence** — every kernel pairing (bitmap×bitmap word-AND,
  bitmap×array membership probe both ways, the window probe, and the
  ``intersect_postings`` dispatcher) returns exactly what the pure
  galloping-merge oracle returns, on every backend (numpy and pure-Python);
* **threshold policy** — ``choose_representation`` is monotone in support
  and consistent with ``dense_threshold``;
* **threshold-crossing flush** — incrementally merging batches into an
  updatable inverted file until lists cross the density threshold (so their
  representation is re-chosen) preserves subset results exactly, including
  page-for-page IO accounting against the array-only configuration;
* **durable round trip** — persisting and reopening an OIF preserves the
  per-item representation tags, and the reopened hybrid index answers
  bit-identically to a reopened array-only one.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import InvertedFile
from repro.compression.postings import PostingColumns, get_backend, set_backend
from repro.core import Dataset
from repro.core.intersect import (
    bitmap_and,
    bitmap_and_dense,
    bitmap_probe,
    bitmap_window_probe,
    intersect_ids,
    intersect_postings,
)
from repro.core.postings import (
    DensePostings,
    REPR_ARRAY,
    REPR_BITMAP,
    choose_representation,
    dense_threshold,
    extract_set_bits,
    pack_sorted_ids,
    to_dense,
    unpack_ids,
)
from repro.core.query.expr import leaf_for
from repro.storage.stats import ReadContext


@pytest.fixture(params=["auto", "python"])
def backend(request):
    """Run each property on the numpy-gated and the pure-Python backend."""
    previous = get_backend()
    set_backend(request.param)
    yield request.param
    set_backend(previous)


# Sorted strictly-increasing id runs with skewed shapes: dense packs, sparse
# sprawls, and mixtures, including runs far from zero.
def sorted_runs(max_size=300):
    return (
        st.lists(
            st.integers(min_value=0, max_value=4000),
            unique=True,
            max_size=max_size,
        )
        .map(sorted)
    )


@st.composite
def run_pairs(draw):
    """Two overlapping sorted runs with adversarial skew."""
    offset = draw(st.integers(min_value=0, max_value=2000))
    a = [offset + v for v in draw(sorted_runs())]
    b = [offset + v for v in draw(sorted_runs())]
    return a, b


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run=sorted_runs(), lengths_seed=st.integers(min_value=0, max_value=2**32))
def test_bitmap_array_round_trip(backend, run, lengths_seed):
    lengths = [((lengths_seed >> (i % 13)) % 40) + 1 for i in range(len(run))]
    columns = PostingColumns(array("Q", run), array("Q", lengths))
    dense = DensePostings.from_columns(columns)
    back = dense.to_columns()
    assert list(back.ids) == run
    assert list(back.lengths) == lengths
    assert len(dense) == len(run)
    for record_id in run[:20]:
        assert dense.contains(record_id)
    assert not dense.contains((run[-1] + 7) if run else 7)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run=sorted_runs())
def test_wire_codec_round_trip(backend, run):
    packed = pack_sorted_ids(array("Q", run))
    if packed is None:
        # The codec declined (too short or too sparse); nothing shipped.
        assert len(run) < 64 or run[-1] - ((run[0] >> 6) << 6) >= 32 * len(run)
    else:
        base, words = packed
        assert list(unpack_ids(base, words)) == run


def test_wire_codec_rejects_unsorted(backend):
    ids = array("Q", [100, 50, 150] + list(range(200, 400)))
    assert pack_sorted_ids(ids) is None
    duplicated = array("Q", sorted(list(range(64, 256)) + [128]))
    assert pack_sorted_ids(duplicated) is None


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pair=run_pairs())
def test_kernels_match_merge_join_oracle(backend, pair):
    a, b = pair
    oracle = intersect_ids(a, b)
    da = DensePostings.from_sorted_ids(array("Q", a))
    db = DensePostings.from_sorted_ids(array("Q", b))
    assert list(bitmap_and(da, db)) == oracle
    folded = bitmap_and_dense(da, db)
    assert list(extract_set_bits(folded.words, folded.base)) == oracle
    assert list(bitmap_probe(da, array("Q", b))) == oracle
    assert list(bitmap_probe(db, array("Q", a))) == oracle
    out: list[int] = []
    matched = bitmap_window_probe(array("Q", a), 0, len(a), db, out)
    assert out == oracle and matched == bool(oracle)
    ca = PostingColumns(array("Q", a), array("Q", [1] * len(a)))
    assert list(intersect_postings(da, db)) == oracle
    assert list(intersect_postings(da, array("Q", b))) == oracle
    assert list(intersect_postings(ca, db)) == oracle
    assert list(intersect_postings(ca, array("Q", b))) == oracle


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run=sorted_runs())
def test_to_dense_geometry_guard(backend, run):
    columns = PostingColumns(array("Q", run), array("Q", [1] * len(run)))
    dense = to_dense(columns)
    if dense is None:
        if run:  # declined: the bitmap would outgrow the id column
            nwords = ((run[-1] - ((run[0] >> 6) << 6)) >> 6) + 1
            assert nwords > len(run)
    else:
        assert len(dense.words) <= len(run)
        assert list(dense.ids) == run


@settings(max_examples=100, deadline=None)
@given(
    support=st.integers(min_value=0, max_value=10_000),
    num_records=st.integers(min_value=1, max_value=10_000),
    ratio=st.floats(min_value=1e-4, max_value=1.0),
)
def test_threshold_policy(support, num_records, ratio):
    tag = choose_representation(support, num_records, ratio)
    threshold = dense_threshold(num_records, ratio)
    assert tag == (REPR_BITMAP if 0 < threshold <= support else REPR_ARRAY)
    if support:
        # Monotone: more support never flips bitmap back to array.
        assert choose_representation(support + 1, num_records, ratio) == tag or tag == REPR_ARRAY


# -- threshold-crossing flush ----------------------------------------------------------


@st.composite
def skewed_batches(draw):
    """Initial transactions plus update batches with Zipf-flavoured skew."""
    num_items = draw(st.integers(min_value=4, max_value=10))
    items = [f"i{i:02d}" for i in range(num_items)]

    def transactions(count):
        out = []
        for offset in range(count):
            picks = draw(
                st.lists(
                    st.integers(min_value=0, max_value=num_items - 1),
                    min_size=1,
                    max_size=min(5, num_items),
                    unique=True,
                )
            )
            # Skew: the head item rides in every other transaction, so its
            # list crosses the density threshold first.
            out.append({items[p] for p in picks} | {items[offset % 2]})
        return out

    # The first transaction carries the full vocabulary: merge_records
    # rejects items the build has never seen.
    initial = [set(items)] + transactions(draw(st.integers(min_value=2, max_value=6)))
    batches = [
        transactions(draw(st.integers(min_value=1, max_value=6)))
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    return items, initial, batches


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=skewed_batches())
def test_threshold_crossing_flush_preserves_results(backend, data):
    items, initial, batches = data

    def build(posting_repr):
        dataset = Dataset.from_transactions(initial)
        # A tiny dense_ratio makes lists cross the threshold within a couple
        # of batches, exercising the representation re-choice on flush.
        index = InvertedFile(dataset, posting_repr=posting_repr, dense_ratio=0.25)
        return dataset, index

    hybrid_ds, hybrid = build("auto")
    arrays_ds, arrays = build("array")
    for batch in batches:
        hybrid.merge_records(hybrid_ds.extend(batch))
        arrays.merge_records(arrays_ds.extend(batch))
        for item in items:
            query = frozenset([item, items[0]])
            ch, ca = ReadContext(), ReadContext()
            rh = hybrid._probe_subset(query, ch)
            ra = arrays._probe_subset(query, ca)
            assert list(rh) == list(ra)
            assert ch.snapshot() == ca.snapshot()
    # The head item rides in every other transaction plus the vocabulary
    # record: with dense_ratio=0.25 its list must have crossed the threshold.
    assert hybrid.repr_for(items[0]) == REPR_BITMAP
    assert arrays.repr_for(items[0]) == REPR_ARRAY


# -- durable round trip ----------------------------------------------------------------


def test_reopened_oif_preserves_repr_tags(tmp_path, backend):
    import random

    from repro.core.oif import OrderedInvertedFile
    from repro.core.updates import UpdatableOIF
    from repro.durability import durable_env_factory, open_index, persist

    rng = random.Random(13)
    items = [f"i{i:02d}" for i in range(20)]
    # Zipf-flavoured skew: low-index items appear in most transactions.
    transactions = [set(items)] + [
        {item for index, item in enumerate(items) if rng.random() < 1.5 / (index + 1)}
        or {items[0]}
        for _ in range(200)
    ]

    def roundtrip(name, posting_repr):
        directory = str(tmp_path / name)
        dataset = Dataset.from_transactions(transactions)
        handle = UpdatableOIF(
            dataset,
            env_factory=durable_env_factory(4096, 64 * 1024),
            posting_repr=posting_repr,
        )
        persist(directory, handle, options={"posting_repr": posting_repr}, fsync="never").close()
        return open_index(directory)

    hybrid = roundtrip("hybrid", "auto")
    arrays = roundtrip("arrays", "array")
    live = OrderedInvertedFile(Dataset.from_transactions(transactions), posting_repr="auto")
    hybrid_oif, arrays_oif = hybrid.inner.index, arrays.inner.index
    assert hybrid_oif.posting_repr == "auto"
    assert any(hybrid_oif.repr_for(item) == REPR_BITMAP for item in items)
    for item in items:
        assert hybrid_oif.repr_for(item) == live.repr_for(item)
        assert arrays_oif.repr_for(item) == REPR_ARRAY
    for _ in range(25):
        query = set(rng.sample(items, rng.randint(1, 3)))
        for query_type in ("subset", "equality", "superset"):
            leaf = leaf_for(query_type, query)
            assert hybrid.evaluate(leaf) == arrays.evaluate(leaf)
    hybrid.close()
    arrays.close()
