"""Trace-span semantics: nesting, stage self-time, sampling, pool propagation.

The critical invariants are (a) spans parent correctly even when child work
runs on a shared thread pool (contextvar propagation through ``wrap``), and
(b) per-stage self-times never double-count, so a span's stage totals sum to
at most its duration.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.obs import trace


@pytest.fixture(autouse=True)
def _tracing_enabled():
    """Each test starts traced and leaves the module disabled (the default)."""
    trace.configure(enabled=True)
    yield
    trace.disable()


def stage_totals(tree: dict) -> float:
    return sum(stage["total_ms"] for stage in tree.get("stages", {}).values())


class TestRoots:
    def test_begin_finish_round_trip(self):
        root = trace.begin("query", index="web")
        time.sleep(0.001)
        tree = trace.finish(root)
        assert tree["name"] == "query"
        assert tree["meta"] == {"index": "web"}
        assert tree["duration_ms"] > 0
        assert not trace.is_active()

    def test_disabled_is_a_no_op(self):
        trace.disable()
        assert trace.begin("query") is None
        assert trace.finish(None) is None
        assert trace.stage_begin() is None
        with trace.span("child") as child:
            assert child is None

    def test_discard_restores_context(self):
        root = trace.begin("query")
        assert trace.is_active()
        trace.discard(root)
        assert not trace.is_active()

    def test_sampling_traces_every_nth_root(self):
        trace.configure(enabled=True, sample_every=3)
        roots = [trace.begin("query") for _ in range(9)]
        traced = [root for root in roots if root is not None]
        assert len(traced) == 3
        # Roots nest in this thread's context, so unwind innermost-first.
        for root in reversed(traced):
            trace.finish(root)
        assert not trace.is_active()

    def test_sample_every_must_be_positive(self):
        with pytest.raises(ValueError):
            trace.configure(sample_every=0)


class TestNesting:
    def test_span_without_root_is_a_no_op(self):
        with trace.span("plan") as child:
            assert child is None

    def test_children_nest_under_the_open_span(self):
        root = trace.begin("query")
        with trace.span("execute"):
            with trace.span("plan"):
                pass
            with trace.span("fetch", index="web"):
                pass
        tree = trace.finish(root)
        (execute,) = tree["children"]
        assert execute["name"] == "execute"
        assert [child["name"] for child in execute["children"]] == ["plan", "fetch"]

    def test_child_durations_sum_to_at_most_parent(self):
        root = trace.begin("query")
        with trace.span("a"):
            time.sleep(0.002)
        with trace.span("b"):
            time.sleep(0.002)
        tree = trace.finish(root)
        child_sum = sum(child["duration_ms"] for child in tree["children"])
        assert child_sum <= tree["duration_ms"] + 1e-6


class TestStages:
    def test_stage_accumulates_count_and_time(self):
        root = trace.begin("query")
        for _ in range(3):
            token = trace.stage_begin()
            trace.stage_end("decode", token)
        tree = trace.finish(root)
        assert tree["stages"]["decode"]["count"] == 3
        assert tree["stages"]["decode"]["total_ms"] >= 0

    def test_nested_stages_report_self_time_only(self):
        root = trace.begin("query")
        outer = trace.stage_begin()
        time.sleep(0.002)
        inner = trace.stage_begin()
        time.sleep(0.004)
        trace.stage_end("inner", inner)
        trace.stage_end("outer", outer)
        tree = trace.finish(root)
        inner_ms = tree["stages"]["inner"]["total_ms"]
        outer_ms = tree["stages"]["outer"]["total_ms"]
        assert inner_ms >= 4.0 * 0.5  # generous slack for coarse clocks
        # Outer self time excludes the inner stage entirely.
        assert outer_ms < inner_ms
        assert stage_totals(tree) <= tree["duration_ms"] + 1e-6

    def test_stages_attach_to_the_innermost_span(self):
        root = trace.begin("query")
        with trace.span("shard"):
            token = trace.stage_begin()
            trace.stage_end("block_scan", token)
        tree = trace.finish(root)
        assert "stages" not in tree
        assert tree["children"][0]["stages"]["block_scan"]["count"] == 1


class TestPoolPropagation:
    def test_concurrent_queries_keep_their_spans_apart(self):
        """N threads each run a root with children; no cross-contamination."""
        errors: list[str] = []
        barrier = threading.Barrier(8)

        def one_query(me: int) -> None:
            barrier.wait()
            root = trace.begin("query", worker=me)
            for step in range(5):
                with trace.span("child", worker=me, step=step):
                    token = trace.stage_begin()
                    trace.stage_end("stage", token)
            tree = trace.finish(root)
            if tree["meta"]["worker"] != me:
                errors.append(f"root meta stolen: {tree['meta']}")
            if len(tree["children"]) != 5:
                errors.append(f"worker {me} got {len(tree['children'])} children")
            for child in tree["children"]:
                if child["meta"]["worker"] != me:
                    errors.append(f"foreign child in worker {me}: {child['meta']}")
            child_sum = sum(child["duration_ms"] for child in tree["children"])
            if child_sum > tree["duration_ms"] + 1e-6:
                errors.append(f"worker {me}: children sum past the root")

        threads = [threading.Thread(target=one_query, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []


class TestRendering:
    def test_format_tree_renders_all_nodes_and_stages(self):
        root = trace.begin("query", index="web")
        with trace.span("execute"):
            token = trace.stage_begin()
            trace.stage_end("intersect", token)
        text = trace.format_tree(trace.finish(root))
        assert "query [index=web]" in text
        assert "\n  execute" in text
        assert "· intersect" in text and "x1" in text

    def test_format_tree_handles_missing_trace(self):
        assert trace.format_tree(None) == "(no trace recorded)"
