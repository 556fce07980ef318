"""Planner and cursor tests: selectivity ordering, rarest-first page savings,
streaming ``limit`` cursors and plan shapes."""

from __future__ import annotations

import pytest

from repro.core import Dataset, OrderedInvertedFile
from repro.core.query import (
    And,
    Equality,
    FilterPlan,
    Not,
    Or,
    Planner,
    ProbePlan,
    ScanPlan,
    SlicePlan,
    Subset,
    Superset,
    UnionPlan,
)
from repro.datasets import SyntheticConfig, generate_synthetic
from repro.errors import QueryError


@pytest.fixture(scope="module")
def skewed_dataset() -> Dataset:
    """A zipf-skewed synthetic dataset: item frequencies differ by orders of
    magnitude, so conjunct order makes a measurable page difference."""
    return generate_synthetic(
        SyntheticConfig(num_records=3000, domain_size=120, zipf_order=1.2, seed=11)
    )


@pytest.fixture(scope="module")
def skewed_oif(skewed_dataset) -> OrderedInvertedFile:
    # Small pages and blocks spread the hot lists over many pages, so page
    # counts resolve the plan differences the tests below assert on.
    return OrderedInvertedFile(skewed_dataset, page_size=512, block_capacity=16)


def common_and_rare(dataset: Dataset):
    """A very frequent and the least frequent item of a dataset's vocabulary.

    Rank 1 rather than rank 0: every record containing the rank-0 item has it
    as its smallest item, so the metadata table leaves that list empty and
    its probe reads almost no pages.
    """
    order = dataset.vocabulary.frequency_order()
    return order.item_at(1), order.item_at(order.max_rank)


class TestSelectivity:
    def test_rarer_items_estimate_smaller(self, skewed_dataset):
        planner = Planner(skewed_dataset)
        common, rare = common_and_rare(skewed_dataset)
        assert planner.selectivity(Subset({rare})) < planner.selectivity(Subset({common}))

    def test_equality_is_at_most_subset(self, skewed_dataset):
        planner = Planner(skewed_dataset)
        common, _ = common_and_rare(skewed_dataset)
        items = frozenset({common})
        assert planner.selectivity(Equality(items)) <= planner.selectivity(Subset(items))

    def test_boolean_estimates_stay_in_unit_interval(self, skewed_dataset):
        planner = Planner(skewed_dataset)
        common, rare = common_and_rare(skewed_dataset)
        exprs = [
            And((Subset({common}), Subset({rare}))),
            Or((Subset({common}), Subset({rare}))),
            Not(Subset({common})),
            Superset(frozenset({common, rare})),
        ]
        for expr in exprs:
            assert 0.0 <= planner.selectivity(expr) <= 1.0


class TestPlanShapes:
    def test_and_plans_probe_plus_residual_filter(self, skewed_dataset):
        planner = Planner(skewed_dataset)
        common, rare = common_and_rare(skewed_dataset)
        plan = planner.plan(And((Subset({common}), Subset({rare}))))
        assert isinstance(plan, FilterPlan)
        assert isinstance(plan.source, ProbePlan)
        assert plan.source.leaf == Subset({rare}), "the rare conjunct must drive"
        assert plan.residual == (Subset({common}),)

    def test_reversed_planner_drives_with_the_frequent_conjunct(self, skewed_dataset):
        planner = Planner(skewed_dataset, rarest_first=False)
        common, rare = common_and_rare(skewed_dataset)
        plan = planner.plan(And((Subset({common}), Subset({rare}))))
        assert isinstance(plan, FilterPlan)
        assert plan.source.leaf == Subset({common})

    def test_or_plans_to_a_union(self, skewed_dataset):
        planner = Planner(skewed_dataset)
        common, rare = common_and_rare(skewed_dataset)
        plan = planner.plan(Or((Subset({common}), Subset({rare}))))
        assert isinstance(plan, UnionPlan)
        assert len(plan.sources) == 2

    def test_pure_negation_falls_back_to_a_scan(self, skewed_dataset):
        planner = Planner(skewed_dataset)
        common, _ = common_and_rare(skewed_dataset)
        assert isinstance(planner.plan(Not(Subset({common}))), ScanPlan)

    def test_limit_wraps_the_plan_in_a_slice(self, skewed_dataset):
        planner = Planner(skewed_dataset)
        common, _ = common_and_rare(skewed_dataset)
        plan = planner.plan(Subset({common}).limit(5, offset=2))
        assert isinstance(plan, SlicePlan)
        assert plan.count == 5 and plan.offset == 2

    def test_explain_renders_every_node(self, skewed_oif):
        common, rare = common_and_rare(skewed_oif.dataset)
        cursor = skewed_oif.execute(
            And((Subset({common}), Subset({rare}), Not(Superset({common, rare}))))
        )
        rendered = cursor.explain()
        assert "probe" in rendered and "filter" in rendered


class TestRarestFirstPages:
    def test_rarest_first_and_reads_no_more_pages_than_reversed(self, skewed_oif):
        """Acceptance: driving with the rare conjunct cannot read more pages."""
        common, rare = common_and_rare(skewed_oif.dataset)
        expr = And((Subset({common}), Subset({rare})))

        skewed_oif.drop_cache()
        rarest = skewed_oif.measured_execute(expr)
        skewed_oif.drop_cache()
        reversed_ = skewed_oif.measured_execute(
            expr, planner=Planner(skewed_oif.dataset, rarest_first=False)
        )

        assert rarest.record_ids == reversed_.record_ids
        assert rarest.page_accesses <= reversed_.page_accesses
        # On this skew the gap is strict: the common item's list spans many
        # more pages than the rare item's.
        assert rarest.page_accesses < reversed_.page_accesses

    def test_both_orders_agree_with_brute_force(self, skewed_oif):
        common, rare = common_and_rare(skewed_oif.dataset)
        expr = And((Subset({common}), Subset({rare})))
        expected = sorted(
            record.record_id
            for record in skewed_oif.dataset
            if expr.matches(record.items)
        )
        for planner in (None, Planner(skewed_oif.dataset, rarest_first=False)):
            skewed_oif.drop_cache()
            assert sorted(skewed_oif.execute(expr, planner=planner)) == expected


class TestStreamingLimit:
    def test_limit_touches_fewer_pages_than_full_materialization(self, skewed_oif):
        """Acceptance: a limited subset cursor stops reading blocks early."""
        common, _ = common_and_rare(skewed_oif.dataset)
        skewed_oif.drop_cache()
        full = skewed_oif.measured_execute(Subset({common}))
        skewed_oif.drop_cache()
        limited = skewed_oif.measured_execute(Subset({common}).limit(3))

        assert len(limited.record_ids) == 3
        assert set(limited.record_ids) <= set(full.record_ids)
        assert limited.page_accesses < full.page_accesses

    def test_limit_and_offset_slice_the_stream(self, skewed_oif):
        common, _ = common_and_rare(skewed_oif.dataset)
        skewed_oif.drop_cache()
        stream = skewed_oif.execute(Subset({common})).fetch_all()
        skewed_oif.drop_cache()
        sliced = skewed_oif.execute(Subset({common}).limit(4, offset=2)).fetch_all()
        assert sliced == stream[2:6]

    def test_cursor_fetch_and_exhaustion(self, skewed_oif):
        common, _ = common_and_rare(skewed_oif.dataset)
        cursor = skewed_oif.execute(Subset({common}))
        first = cursor.fetch(5)
        assert len(first) == 5 and cursor.consumed == 5
        rest = cursor.fetch_all()
        assert cursor.exhausted
        assert len(first) + len(rest) == len(skewed_oif.evaluate(Subset({common})))

    def test_fetch_rejects_negative_counts(self, skewed_oif):
        common, _ = common_and_rare(skewed_oif.dataset)
        with pytest.raises(QueryError):
            skewed_oif.execute(Subset({common})).fetch(-1)

    def test_zero_limit_yields_nothing(self, skewed_oif):
        common, _ = common_and_rare(skewed_oif.dataset)
        assert skewed_oif.evaluate(Subset({common}).limit(0)) == []
