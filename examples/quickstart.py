"""Quickstart: index a small set-valued table and run the three containment queries.

Run with::

    python examples/quickstart.py

The example mirrors the running example of the paper (Figure 1): a tiny
relation of set-valued records, indexed by the Ordered Inverted File, queried
with subset / equality / superset predicates, and compared against the classic
inverted file on both answers and I/O cost.
"""

from __future__ import annotations

from repro import Dataset, InvertedFile, OrderedInvertedFile
from repro.core.query.expr import leaf_for

# The example relation of Figure 1 in the paper: 18 records over items a..j.
TRANSACTIONS = [
    {"g", "b", "a", "d"},
    {"a", "e", "b"},
    {"f", "e", "a", "b"},
    {"d", "b", "a"},
    {"a", "b", "f", "c"},
    {"c", "a"},
    {"d", "h"},
    {"b", "a", "f"},
    {"b", "c"},
    {"j", "b", "g"},
    {"a", "c", "b"},
    {"i", "d"},
    {"a"},
    {"a", "d"},
    {"j", "c", "a"},
    {"i", "c"},
    {"a", "c", "h"},
    {"d", "c"},
]


def main() -> None:
    dataset = Dataset.from_transactions(TRANSACTIONS, start_id=101)
    print(f"indexed {len(dataset)} records over {dataset.domain_size} items\n")

    oif = OrderedInvertedFile(dataset)
    inverted_file = InvertedFile(dataset)

    queries = [
        ("subset", {"a", "d"}, "records containing both a and d"),
        ("equality", {"a", "c"}, "records whose set-value is exactly {a, c}"),
        ("superset", {"a", "c"}, "records whose items are all within {a, c}"),
    ]

    for predicate, items, description in queries:
        print(f"{predicate} query {sorted(items)} — {description}")
        for index in (inverted_file, oif):
            index.drop_cache()
            result = index.measured_execute(leaf_for(predicate, items))
            print(
                f"  {index.name:>3}: records {list(result.record_ids)} "
                f"({result.page_accesses} page accesses)"
            )
        print()

    report = oif.build_report
    assert report is not None
    print(
        "OIF structure: "
        f"{report.num_blocks} blocks, {report.num_postings} stored postings, "
        f"{report.postings_saved_by_metadata} postings replaced by the metadata table"
    )


if __name__ == "__main__":
    main()
