"""Tests for the race detection algorithm (§4.3)."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.graph import HBGraph, location_accessors
from repro.core.operations import (
    attachq,
    begin,
    enable,
    end,
    fork,
    join,
    looponq,
    post,
    read,
    threadexit,
    threadinit,
    write,
)
from repro.core.race_detector import RaceDetector, detect_races
from repro.core.trace import ExecutionTrace
from repro.core.classification import RaceCategory
from tests.test_property import run_random_app


def trace_of(*ops, name="t"):
    return ExecutionTrace(list(ops), name=name)


class TestBasicDetection:
    def test_unsynchronized_cross_thread_writes_race(self):
        report = detect_races(
            trace_of(
                threadinit("t"),
                threadinit("u"),
                write("t", "O@1.x"),
                write("u", "O@1.x"),
            )
        )
        assert len(report.races) == 1
        race = report.races[0]
        assert race.location == "O@1.x"
        assert race.field_name == "O.x"
        assert race.category is RaceCategory.MULTITHREADED
        assert not race.is_single_threaded

    def test_read_read_is_not_a_race(self):
        report = detect_races(
            trace_of(
                threadinit("t"),
                threadinit("u"),
                read("t", "O@1.x"),
                read("u", "O@1.x"),
            )
        )
        assert report.races == []

    def test_fork_edge_prevents_race(self):
        report = detect_races(
            trace_of(
                threadinit("t"),
                write("t", "O@1.x"),
                fork("t", "u"),
                threadinit("u"),
                write("u", "O@1.x"),
            )
        )
        assert report.races == []

    def test_join_edge_prevents_race(self):
        report = detect_races(
            trace_of(
                threadinit("t"),
                fork("t", "u"),
                threadinit("u"),
                write("u", "O@1.x"),
                threadexit("u"),
                join("t", "u"),
                write("t", "O@1.x"),
            )
        )
        assert report.races == []

    def test_same_task_accesses_never_race(self):
        report = detect_races(
            trace_of(
                threadinit("t"),
                attachq("t"),
                looponq("t"),
                post("t", "p", "t"),
                begin("t", "p"),
                write("t", "O@1.x"),
                write("t", "O@1.x"),
                end("t", "p"),
            )
        )
        assert report.races == []


class TestDeduplication:
    def test_one_report_per_location_and_category(self):
        # Three unordered tasks all writing the same location: several racy
        # pairs, one report (paper: 'reports any one of them').
        ops = [
            threadinit("t"),
            attachq("t"),
            looponq("t"),
            threadinit("u"),
            threadinit("v"),
            threadinit("w"),
            post("u", "p1", "t"),
            post("v", "p2", "t"),
            post("w", "p3", "t"),
            begin("t", "p1"),
            write("t", "O@1.x"),
            end("t", "p1"),
            begin("t", "p2"),
            write("t", "O@1.x"),
            end("t", "p2"),
            begin("t", "p3"),
            write("t", "O@1.x"),
            end("t", "p3"),
        ]
        report = detect_races(trace_of(*ops))
        assert len(report.races) == 1
        assert report.racy_pair_count == 3

    def test_distinct_objects_of_same_class_reported_separately(self):
        report = detect_races(
            trace_of(
                threadinit("t"),
                threadinit("u"),
                write("t", "O@1.x"),
                write("t", "O@2.x"),
                write("u", "O@1.x"),
                write("u", "O@2.x"),
            )
        )
        assert len(report.races) == 2
        assert {r.location for r in report.races} == {"O@1.x", "O@2.x"}
        assert report.racy_fields() == ["O.x"]


class TestRepresentativePair:
    def test_representative_pair_includes_a_write(self):
        report = detect_races(
            trace_of(
                threadinit("t"),
                threadinit("u"),
                read("t", "O@1.x"),
                write("u", "O@1.x"),
            )
        )
        (race,) = report.races
        assert race.op_i.is_read and race.op_j.is_write

    def test_write_chosen_from_first_node_when_present(self):
        report = detect_races(
            trace_of(
                threadinit("t"),
                threadinit("u"),
                write("t", "O@1.x"),
                read("u", "O@1.x"),
            )
        )
        (race,) = report.races
        assert race.op_i.is_write and race.op_j.is_read


class TestCancellation:
    def test_cancelled_task_posts_removed_before_analysis(self):
        ops = [
            threadinit("t"),
            attachq("t"),
            looponq("t"),
            post("t", "zombie", "t"),  # cancelled, never begun
            post("t", "p", "t"),
            begin("t", "p"),
            write("t", "O@1.x"),
            end("t", "p"),
        ]
        detector = RaceDetector(trace_of(*ops), cancelled_tasks=["zombie"])
        report = detector.detect()
        assert "zombie" not in detector.trace.tasks
        assert report.races == []


class TestReport:
    def test_report_metadata(self):
        from repro.apps.paper_traces import figure4_trace

        report = detect_races(figure4_trace())
        assert report.trace_name == "figure4"
        assert report.trace_length == len(figure4_trace())
        assert 0 < report.node_count <= report.trace_length
        assert report.analysis_seconds >= 0
        assert report.count(RaceCategory.MULTITHREADED) == 1
        assert report.count(RaceCategory.CROSS_POSTED) == 1
        assert "figure4" in report.summary()
        by_cat = report.by_category()
        assert len(by_cat[RaceCategory.MULTITHREADED]) == 1

    def test_races_sorted_by_position(self):
        from repro.apps.paper_traces import figure4_trace

        report = detect_races(figure4_trace())
        positions = [(r.op_i.index, r.op_j.index) for r in report.races]
        assert positions == sorted(positions)

    def test_race_describe_mentions_ops(self):
        from repro.apps.paper_traces import figure4_trace

        report = detect_races(figure4_trace())
        text = str(report.races[0])
        assert "race on" in text and "read" in text and "write" in text


class TestEnableSuppressesFalsePositive:
    def test_lifecycle_ordering_via_enable(self):
        """The Figure 4 (7,21) pair must NOT be reported."""
        from repro.apps.paper_traces import figure4_trace

        report = detect_races(figure4_trace())
        launch_write_races = [
            r for r in report.races if 7 in (r.op_i.index, r.op_j.index)
        ]
        assert launch_write_races == []


def defined_accessors(graph):
    """``location -> [(node, writes)]`` straight from the definition: each
    access block's locations in first-access order, each flag from a scan
    of that location's accesses in the block."""
    index = {}
    for node in graph.nodes:
        if not node.is_access_block:
            continue
        for location in node.locations():
            writes = any(op.is_write for op in node.accesses_to(location))
            index.setdefault(location, []).append((node, writes))
    return index


def as_ordered(index):
    """The index as nested lists, so comparison checks location order,
    accessor order and flags."""
    return [
        (location, [(node.node_id, writes) for node, writes in accessors])
        for location, accessors in index.items()
    ]


class TestLocationIndex:
    @given(st.integers(min_value=0, max_value=10_000), st.booleans())
    @settings(
        max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_matches_definition_on_random_apps(self, seed, coalesce):
        trace = run_random_app(seed).build_trace()
        graph = HBGraph(trace, coalesce=coalesce)
        assert as_ordered(location_accessors(graph)) == as_ordered(
            defined_accessors(graph)
        )

    @pytest.mark.parametrize("coalesce", [True, False])
    def test_read_write_orders_within_a_block(self, coalesce):
        trace = trace_of(
            threadinit("t"),
            threadinit("u"),
            read("t", "a"),  # read then write: flag upgrades to a write
            write("t", "a"),
            write("t", "b"),  # write then read: a later read keeps it a write
            read("t", "b"),
            read("t", "c"),
            read("t", "c"),
            read("u", "c"),
            write("u", "c"),
            read("u", "a"),
        )
        graph = HBGraph(trace, coalesce=coalesce)
        got = as_ordered(location_accessors(graph))
        assert got == as_ordered(defined_accessors(graph))
        if coalesce:
            # one block per thread; locations in first-access order
            assert got == [
                ("a", [(2, True), (3, False)]),
                ("b", [(2, True)]),
                ("c", [(2, False), (3, True)]),
            ]

    def test_detector_counts_location_entries(self):
        from repro.obs import Tracer, use_tracer

        trace = trace_of(
            threadinit("t"),
            threadinit("u"),
            read("t", "a"),
            write("t", "b"),
            write("u", "a"),
        )
        tracer = Tracer()
        with use_tracer(tracer):
            detect_races(trace)
        assert tracer.counters["detect.location_entries"] == 3
        spans = {r.name: r for r in tracer.spans}
        assert (
            spans["detect.location_index"].parent_id
            == spans["detect.enumerate"].span_id
        )
