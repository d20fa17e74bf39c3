"""Unit tests for ExecutionTrace construction and metadata."""

import pytest

from repro.core.operations import (
    attachq,
    begin,
    enable,
    end,
    fork,
    looponq,
    post,
    read,
    threadexit,
    threadinit,
    write,
)
from repro.core.operations import Operation
from repro.core.trace import (
    ExecutionTrace,
    InvalidTraceError,
    TraceBuilder,
    field_of_location,
)


def simple_looper_trace():
    return ExecutionTrace(
        [
            threadinit("t1"),
            attachq("t1"),
            looponq("t1"),
            threadinit("t0"),
            post("t0", "p", "t1"),
            begin("t1", "p"),
            write("t1", "Obj@1.x"),
            end("t1", "p"),
        ],
        name="simple",
    )


class TestIngest:
    def test_indices_assigned_sequentially(self):
        trace = simple_looper_trace()
        assert [op.index for op in trace] == list(range(len(trace)))

    def test_threads_in_first_appearance_order(self):
        trace = simple_looper_trace()
        assert trace.threads == ["t1", "t0"]

    def test_task_info_positions(self):
        trace = simple_looper_trace()
        info = trace.tasks["p"]
        assert info.post_index == 4
        assert info.begin_index == 5
        assert info.end_index == 7
        assert info.thread == "t1"
        assert info.poster_thread == "t0"

    def test_attach_and_loop_indices(self):
        trace = simple_looper_trace()
        assert trace.attach_index["t1"] == 1
        assert trace.loop_index["t1"] == 2

    def test_double_attach_rejected(self):
        with pytest.raises(InvalidTraceError):
            ExecutionTrace([threadinit("t"), attachq("t"), attachq("t")])

    def test_loop_without_attach_rejected(self):
        with pytest.raises(InvalidTraceError):
            ExecutionTrace([threadinit("t"), looponq("t")])

    def test_double_post_of_same_task_rejected(self):
        with pytest.raises(InvalidTraceError):
            ExecutionTrace(
                [
                    threadinit("t"),
                    attachq("t"),
                    post("t", "p", "t"),
                    post("t", "p", "t"),
                ]
            )

    def test_nested_begin_rejected(self):
        with pytest.raises(InvalidTraceError):
            ExecutionTrace(
                [
                    threadinit("t"),
                    attachq("t"),
                    looponq("t"),
                    post("t", "p", "t"),
                    post("t", "q", "t"),
                    begin("t", "p"),
                    begin("t", "q"),
                ]
            )

    def test_end_without_matching_begin_rejected(self):
        with pytest.raises(InvalidTraceError):
            ExecutionTrace(
                [threadinit("t"), attachq("t"), looponq("t"), end("t", "p")]
            )

    def test_begin_on_wrong_thread_rejected(self):
        with pytest.raises(InvalidTraceError):
            ExecutionTrace(
                [
                    threadinit("t"),
                    threadinit("u"),
                    attachq("t"),
                    attachq("u"),
                    looponq("u"),
                    post("t", "p", "t"),
                    begin("u", "p"),
                ]
            )


class TestHelpers:
    def test_task_of_inside_and_outside_tasks(self):
        trace = simple_looper_trace()
        assert trace.task_of(6) == ("t1", "p")  # the write
        assert trace.task_of(5) == ("t1", "p")  # begin belongs to the task
        assert trace.task_of(7) == ("t1", "p")  # end belongs to the task
        assert trace.task_of(0) is None
        assert trace.task_of(4) is None  # post from t0 outside any task

    def test_looped_before(self):
        trace = simple_looper_trace()
        assert not trace.looped_before("t1", 2)  # loopOnQ itself
        assert trace.looped_before("t1", 5)
        assert not trace.looped_before("t0", 4)

    def test_post_chain_single_level(self):
        trace = simple_looper_trace()
        assert trace.post_chain(6) == [4]

    def test_post_chain_multi_level(self):
        # p posts q; q's chain should be [post(p), post(q)].
        trace = ExecutionTrace(
            [
                threadinit("t"),
                attachq("t"),
                looponq("t"),
                threadinit("u"),
                post("u", "p", "t"),
                begin("t", "p"),
                post("t", "q", "t"),
                end("t", "p"),
                begin("t", "q"),
                write("t", "o.x"),
                end("t", "q"),
            ]
        )
        assert trace.post_chain(9) == [4, 6]

    def test_post_chain_empty_outside_tasks(self):
        trace = simple_looper_trace()
        assert trace.post_chain(0) == []


class TestStatistics:
    def test_locations_and_fields(self):
        trace = ExecutionTrace(
            [
                threadinit("t"),
                write("t", "A@1.x"),
                write("t", "A@2.x"),
                write("t", "A@1.y"),
                read("t", "B@1.z"),
            ]
        )
        assert set(trace.locations()) == {"A@1.x", "A@2.x", "A@1.y", "B@1.z"}
        # A.x counted once despite two objects (paper's Fields column).
        assert set(trace.fields()) == {"A.x", "A.y", "B.z"}

    def test_field_of_location(self):
        assert field_of_location("Cls@3.name") == "Cls.name"
        assert field_of_location("obj.f") == "obj.f"
        assert field_of_location("bare") == "bare"

    def test_thread_queue_partition(self):
        trace = simple_looper_trace()
        assert trace.threads_with_queue() == ["t1"]
        assert trace.threads_without_queue() == ["t0"]

    def test_async_task_count_counts_begun_tasks(self):
        trace = simple_looper_trace()
        assert trace.async_task_count() == 1
        # A posted-but-never-begun task does not count.
        trace2 = ExecutionTrace(
            [threadinit("t"), attachq("t"), post("t", "never", "t")]
        )
        assert trace2.async_task_count() == 0


class TestCancellation:
    def test_without_cancelled_posts_removes_post_ops(self):
        trace = ExecutionTrace(
            [
                threadinit("t"),
                attachq("t"),
                post("t", "gone", "t"),
                post("t", "kept", "t"),
            ]
        )
        pruned = trace.without_cancelled_posts(["gone"])
        assert len(pruned) == 3
        assert "gone" not in pruned.tasks
        assert "kept" in pruned.tasks


class TestSerialization:
    def test_jsonl_roundtrip_preserves_everything(self):
        trace = ExecutionTrace(
            [
                threadinit("t1"),
                attachq("t1"),
                looponq("t1"),
                enable("t1", "click:btn"),
                post("t1", "h", "t1", delay=30, event="click:btn"),
                begin("t1", "h"),
                write("t1", "O@1.f"),
                end("t1", "h"),
                fork("t1", "t2"),
                threadinit("t2"),
                threadexit("t2"),
            ]
        )
        restored = ExecutionTrace.from_jsonl(trace.to_jsonl())
        assert len(restored) == len(trace)
        for a, b in zip(trace, restored):
            assert a.render() == b.render()
        assert restored.tasks["h"].delay == 30
        assert restored.tasks["h"].event == "click:btn"

    def test_from_jsonl_skips_comments_and_blanks(self):
        text = '# comment\n\n{"kind": "threadinit", "thread": "t"}\n'
        trace = ExecutionTrace.from_jsonl(text)
        assert len(trace) == 1

    def test_load_constructs_each_operation_once(self, tmp_path, monkeypatch):
        trace = simple_looper_trace()
        path = tmp_path / "t.jsonl"
        path.write_text("# header\n\n" + trace.to_jsonl())
        calls = []
        original = Operation.__post_init__

        def counting(op):
            calls.append(op.index)
            original(op)

        monkeypatch.setattr(Operation, "__post_init__", counting)
        loaded = ExecutionTrace.load(str(path))
        assert calls == list(range(len(trace)))
        assert [op.render() for op in loaded] == [op.render() for op in trace]

    def test_record_index_is_overridden_by_position(self):
        text = (
            '{"kind": "threadinit", "thread": "t", "index": 7}\n'
            '{"kind": "write", "thread": "t", "location": "O@1.f", "index": 0}\n'
            '{"kind": "read", "thread": "t", "location": "O@1.f", "index": "x"}\n'
        )
        trace = ExecutionTrace.from_jsonl(text)
        assert [op.index for op in trace] == [0, 1, 2]
        assert trace.to_jsonl() == ExecutionTrace(list(trace)).to_jsonl()

    def test_race_round_trip_keeps_op_indices(self):
        from repro.apps.paper_traces import figure4_trace
        from repro.core.race_detector import Race, detect_races

        races = detect_races(figure4_trace()).races
        assert races
        for race in races:
            restored = Race.from_dict(race.to_dict())
            assert restored.op_i.index == race.op_i.index
            assert restored.op_j.index == race.op_j.index
            assert restored == race


class TestTraceBuilder:
    def test_unique_task_renaming(self):
        builder = TraceBuilder()
        assert builder.unique_task("onClick") == "onClick"
        assert builder.unique_task("onClick") == "onClick#2"
        assert builder.unique_task("onClick") == "onClick#3"
        assert builder.unique_task("other") == "other"

    def test_build_reindexes(self):
        builder = TraceBuilder("b")
        builder.add(threadinit("t"))
        builder.extend([attachq("t"), looponq("t")])
        trace = builder.build()
        assert trace.name == "b"
        assert [op.index for op in trace] == [0, 1, 2]
