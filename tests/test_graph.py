"""Tests for the happens-before graph and the coalescing optimization."""

import pytest

from repro.core.graph import HBGraph, bits, location_accessors
from repro.core.operations import (
    attachq,
    begin,
    end,
    looponq,
    post,
    read,
    threadinit,
    write,
)
from repro.core.trace import ExecutionTrace


class TestBits:
    def test_empty(self):
        assert bits(0) == []

    def test_various(self):
        assert bits(0b1) == [0]
        assert bits(0b1010) == [1, 3]
        assert bits(1 << 100 | 1) == [0, 100]


class TestCoalescing:
    def test_contiguous_same_task_accesses_merge(self):
        trace = ExecutionTrace(
            [
                threadinit("t"),
                write("t", "a"),
                write("t", "b"),
                read("t", "a"),
            ]
        )
        graph = HBGraph(trace, coalesce=True)
        assert len(graph) == 2  # threadinit + one access block
        block = graph.node_for(1)
        assert block is graph.node_for(2) is graph.node_for(3)
        assert block.locations() == ["a", "b"]
        assert location_accessors(graph) == {
            "a": [(block, True)],
            "b": [(block, True)],
        }

    def test_sync_op_on_same_thread_breaks_run(self):
        trace = ExecutionTrace(
            [
                threadinit("t"),
                write("t", "a"),
                attachq("t"),
                write("t", "a"),
            ]
        )
        graph = HBGraph(trace, coalesce=True)
        assert graph.node_for(1) is not graph.node_for(3)

    def test_other_threads_accesses_do_not_break_run(self):
        """Per-thread coalescing: interleaved accesses from another thread
        leave both runs as single nodes."""
        trace = ExecutionTrace(
            [
                threadinit("t"),
                threadinit("u"),
                write("t", "a"),
                write("u", "b"),
                write("t", "a"),
                write("u", "b"),
            ]
        )
        graph = HBGraph(trace, coalesce=True)
        assert graph.node_for(2) is graph.node_for(4)
        assert graph.node_for(3) is graph.node_for(5)
        assert len(graph) == 4

    def test_task_boundary_breaks_run(self):
        trace = ExecutionTrace(
            [
                threadinit("t"),
                attachq("t"),
                looponq("t"),
                post("t", "p1", "t"),
                post("t", "p2", "t"),
                begin("t", "p1"),
                write("t", "a"),
                end("t", "p1"),
                begin("t", "p2"),
                write("t", "a"),
                end("t", "p2"),
            ]
        )
        graph = HBGraph(trace, coalesce=True)
        assert graph.node_for(6) is not graph.node_for(9)
        assert graph.node_for(6).task == "p1"
        assert graph.node_for(9).task == "p2"

    def test_coalesce_disabled_one_node_per_op(self):
        trace = ExecutionTrace(
            [threadinit("t"), write("t", "a"), write("t", "a"), read("t", "a")]
        )
        graph = HBGraph(trace, coalesce=False)
        assert len(graph) == 4

    def test_reduction_ratio(self):
        trace = ExecutionTrace(
            [threadinit("t")] + [write("t", "a")] * 9
        )
        graph = HBGraph(trace, coalesce=True)
        assert len(graph) == 2
        assert graph.reduction_ratio == pytest.approx(0.2)


class TestOrderingQueries:
    def test_ops_within_one_block_ordered_by_index(self):
        trace = ExecutionTrace(
            [threadinit("t"), write("t", "a"), write("t", "b")]
        )
        graph = HBGraph(trace, coalesce=True)
        assert graph.ordered_ops(1, 2)
        assert not graph.ordered_ops(2, 1)

    def test_node_reflexive(self):
        trace = ExecutionTrace([threadinit("t"), write("t", "a")])
        graph = HBGraph(trace)
        assert graph.ordered(0, 0)

    def test_edge_insertion_and_counts(self):
        trace = ExecutionTrace([threadinit("t"), threadinit("u"), write("t", "a")])
        graph = HBGraph(trace, coalesce=False)
        assert graph.add_st(0, 2)
        assert not graph.add_st(0, 2)  # duplicate
        assert graph.add_mt(0, 1)
        st, mt = graph.edge_count()
        assert (st, mt) == (1, 1)
        assert graph.ordered(0, 2)
        assert graph.successors(0) == [1, 2]

    def test_masks(self):
        trace = ExecutionTrace([threadinit("t"), threadinit("u"), write("t", "a")])
        graph = HBGraph(trace, coalesce=False)
        assert bits(graph.same_thread_mask("t")) == [0, 2]
        assert bits(graph.diff_thread_mask("t")) == [1]

    def test_to_dot_renders(self):
        trace = ExecutionTrace([threadinit("t"), write("t", "a")])
        graph = HBGraph(trace)
        graph.add_st(0, 1)
        dot = graph.to_dot()
        assert dot.startswith("digraph") and "n0 -> n1" in dot


class TestPrecisionPreservation:
    """Detection results must be identical with and without coalescing —
    the paper's 'without sacrificing on the precision' claim (§6)."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_race_reports_equal_on_runtime_traces(self, seed):
        from repro.apps.registry import DEMO_APPS
        from repro.core.race_detector import detect_races
        from repro.explorer import UIExplorer

        app = DEMO_APPS["messenger"]
        result = UIExplorer(app, depth=1, seed=seed, max_runs=4).explore()
        for run in result.store.runs:
            with_c = detect_races(run.trace, coalesce=True)
            without_c = detect_races(run.trace, coalesce=False)
            key = lambda report: sorted(
                (race.location, race.category.value) for race in report.races
            )
            assert key(with_c) == key(without_c)
