"""Web-log session analysis: the paper's msweb scenario end to end.

Run with::

    python examples/weblog_sessions.py

The paper's running example treats each record as a user session on a web
portal and each item as a visited area.  Typical analyst questions map to the
three containment predicates:

* "Which users visited both the download area and the support area?" — subset;
* "Which sessions consist of exactly the home page and the search page?" — equality;
* "Which users limited their visit to the main and downloads sections?" — superset.

The example builds the simulated msweb log, answers those questions with the
OIF and the classic inverted file, and also demonstrates the batch-update
path: a new day of sessions is buffered in the memory-resident delta index and
later merged.
"""

from __future__ import annotations

from repro import InvertedFile, OrderedInvertedFile
from repro.core.query.expr import Subset, leaf_for
from repro.core.updates import UpdatableOIF
from repro.datasets import MswebConfig, generate_msweb
from repro.datasets.msweb import area_name


def main() -> None:
    config = MswebConfig(num_sessions=10_000, replicas=2, seed=3)
    sessions = generate_msweb(config)
    print(
        f"web log: {len(sessions)} sessions over {sessions.domain_size} areas, "
        f"average session visits {sessions.average_length:.2f} areas\n"
    )

    oif = OrderedInvertedFile(sessions)
    inverted_file = InvertedFile(sessions)

    # The most popular areas get the smallest ranks under the frequency order.
    popular = [oif.order.item_at(rank) for rank in range(4)]
    niche = [oif.order.item_at(oif.domain_size - 1 - offset) for offset in range(2)]
    print(f"most visited areas: {popular}")
    print(f"rarely visited areas: {niche}\n")

    questions = [
        ("subset", {popular[0], popular[2]}, "sessions visiting two popular areas"),
        ("subset", {popular[0], niche[0]}, "sessions mixing a popular and a niche area"),
        ("equality", {popular[0], popular[1]}, "sessions that saw exactly the two top areas"),
        (
            "superset",
            set(popular),
            "sessions confined to the four most popular areas",
        ),
    ]
    for predicate, items, description in questions:
        print(f"{description}\n  query: {predicate} {sorted(map(str, items))}")
        for index in (inverted_file, oif):
            index.drop_cache()
            result = index.measured_execute(leaf_for(predicate, items))
            print(
                f"  {index.name:>3}: {result.cardinality:5d} sessions, "
                f"{result.page_accesses:4d} page accesses"
            )
        print()

    # --- a new day of traffic arrives -------------------------------------------
    updatable = UpdatableOIF(sessions)
    new_day = generate_msweb(MswebConfig(num_sessions=1_000, replicas=1, seed=99))
    updatable.insert(set(record.items) for record in new_day)
    print(f"buffered {updatable.pending_updates} fresh sessions in the in-memory delta index")
    probe = {area_name(0)}
    before = len(updatable.evaluate(Subset(probe)))
    report = updatable.flush()
    after = len(updatable.evaluate(Subset(probe)))
    print(
        f"merged them in {report.merge_seconds * 1000:.1f} ms "
        f"({report.seconds_per_record * 1000:.3f} ms per session); "
        f"answers for {sorted(probe)} stayed consistent: {before} before, {after} after"
    )


if __name__ == "__main__":
    main()
